// Package workload is the macro-benchmark suite: deterministic, seedable
// whole-system scenarios — fork storms, syscall mills, pipe pipelines,
// debugger attach/detach churn, and /proc scans over large process
// populations — each reporting a per-operation latency distribution
// (p50/p95/p99/max) and aggregate operations per second.
//
// Scenarios drive a simulated system from the host side the way the
// repository's tools do. Every decision a scenario makes (which program to
// spawn, which target to attach to, which sweep to run) comes from a
// math/rand stream seeded by Config.Seed, so one seed replays one exact
// simulation: the ktrace stream and the final process table are
// bit-identical across runs. Host wall-clock time is only ever *recorded*
// around operations, never consulted for decisions, which is what keeps the
// measurement from perturbing the simulation.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro"
)

// Config tunes one scenario run. Zero values take per-scenario defaults.
type Config struct {
	Seed     int64 // the replay key; same seed, same simulation
	Ops      int   // measured operations
	Procs    int   // population size, where the scenario has one
	Legacy   bool  // proc_scan: per-pid /proc sweeps instead of PIOCSNAP
	TraceCap int   // when >0, enable kernel-wide ktrace with this capacity
	// NCPU selects the scheduler: 0 or 1 the deterministic one, above 1
	// the SMP scheduler. Runs above 1 are not bit-replayable — scheduling
	// order depends on goroutine timing.
	NCPU int
}

// Result is one scenario's report: the latency distribution over its
// measured operations and the aggregate rate.
type Result struct {
	Scenario  string
	Ops       int
	ElapsedNs int64
	OpsPerSec float64
	MeanNs    float64
	P50Ns     float64
	P95Ns     float64
	P99Ns     float64
	MaxNs     float64
}

// Scenario is one named workload.
type Scenario struct {
	Name string
	Desc string
	run  func(s *repro.System, cfg Config, h *hist) error
	// disk, when nonzero, boots the system with a persistent blockfs of
	// that many blocks at /disk.
	disk int
}

// scenarios is the registry, in presentation order.
var scenarios = []Scenario{
	{"fork_storm", "process creation/reaping churn: spawn a forker, run its family to completion", runForkStorm, 0},
	{"syscall_mill", "a fleet of processes grinding getpid; one op is one scheduler pass", runSyscallMill, 0},
	{"pipe_pipeline", "fork + pipe transfer with blocking reads, run to completion", runPipePipeline, 0},
	{"debugger_fleet", "attach/detach churn: open, stop, read registers, run, close", runDebuggerFleet, 0},
	{"proc_scan", "mixed ps/usage sweeps of /proc over a large live population", runProcScan, 0},
	{"fs_churn", "create/write/fsync/unlink mill on the persistent /disk; one op is one scheduler pass", runFSChurn, 2048},
}

// Names lists the registered scenarios in order.
func Names() []string {
	out := make([]string, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Name
	}
	return out
}

// Get returns a scenario by name.
func Get(name string) (Scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Run boots a fresh system, runs the named scenario under cfg, and returns
// its report along with the system itself so callers (the determinism
// harness) can inspect the trace stream and final process table.
func Run(name string, cfg Config) (Result, *repro.System, error) {
	sc, ok := Get(name)
	if !ok {
		return Result{}, nil, fmt.Errorf("workload: unknown scenario %q (have %v)", name, Names())
	}
	s := repro.NewSystem(repro.Options{NCPU: cfg.NCPU, DiskBlocks: sc.disk})
	if cfg.TraceCap > 0 {
		s.K.EnableKTraceAll(cfg.TraceCap)
	}
	h := &hist{}
	start := time.Now()
	if err := sc.run(s, cfg, h); err != nil {
		return Result{}, s, fmt.Errorf("workload: %s: %w", name, err)
	}
	elapsed := time.Since(start)
	res := h.result(name, elapsed)
	return res, s, nil
}

// rng returns the scenario's decision stream.
func (cfg Config) rng() *rand.Rand { return rand.New(rand.NewSource(cfg.Seed)) }

// orDefault picks a configured value or the scenario default.
func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// hist accumulates per-operation latencies in nanoseconds.
type hist struct {
	samples []int64
}

// op times one operation.
func (h *hist) op(f func()) {
	t0 := time.Now()
	f()
	h.samples = append(h.samples, time.Since(t0).Nanoseconds())
}

// record adds one pre-measured sample.
func (h *hist) record(ns int64) { h.samples = append(h.samples, ns) }

// percentile is the nearest-rank percentile over the sorted samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank])
}

// result summarizes the distribution.
func (h *hist) result(name string, elapsed time.Duration) Result {
	res := Result{Scenario: name, Ops: len(h.samples), ElapsedNs: elapsed.Nanoseconds()}
	if len(h.samples) == 0 {
		return res
	}
	sorted := append([]int64(nil), h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	res.MeanNs = float64(sum) / float64(len(sorted))
	res.P50Ns = percentile(sorted, 0.50)
	res.P95Ns = percentile(sorted, 0.95)
	res.P99Ns = percentile(sorted, 0.99)
	res.MaxNs = float64(sorted[len(sorted)-1])
	if elapsed > 0 {
		res.OpsPerSec = float64(len(sorted)) / elapsed.Seconds()
	}
	return res
}

// Command perfbench is the repository's benchmark. It boots simulated
// systems through the public surface (repro.System, vfs.Client, rfs.Client,
// tools.PS, blockfs.Mount), runs one of three closed-loop workloads for a
// fixed time, checks the outputs, and prints every end-to-end metric by
// name and unit — or, with --trace 1, the per-layer metrics, measured from
// outside by wrapping the interfaces the program already accepts.
//
//	go run . --workload jobs_1cpu --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit status is non-zero when any output check fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one booted workload.
type env interface {
	// tick does one unit of closed-loop work, reporting finished ops to ph.
	tick(ph *phase) error
	// warmed reports whether the warm-up phase ph is complete.
	warmed(ph *phase) bool
	// drain stops issuing work and lets in-flight ops finish.
	drain(ph *phase) error
	// check verifies the workload's outputs after the drain.
	check() error
	counters() counters
	close()
}

// counters are cumulative layer counts, read before and after a phase.
type counters struct {
	passes, ticks                 int64 // Step calls; simulated clock
	devReads, devWrites, devSyncs int64
	roundTrips, wireBytes         int64
	retries                       int64
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (env, error)
}

// The default workload sizes.
var (
	jobs1CPU = jobsConfig{
		ncpu: 1, warmJobs: 1000,
		mix: []share{{kCompute, 25}, {kMill, 35}, {kFork, 20}, {kPipe, 20}},
	}
	filesSMP = jobsConfig{
		ncpu: runtime.NumCPU(), warmJobs: 1000,
		files: 48, fileSize: 8 << 10,
		mix: []share{{kChurn, 45}, {kScan, 45}, {kFork, 10}},
	}
	observeRFS = observeConfig{controllers: 2}
)

// The workloads load different layers, so a gain on one layer that another
// pays for shows: jobs_1cpu loads vcpu, syscalls and fork/exit and is
// bit-replayable; files_smp loads the SMP scheduler, the global lock and
// blockfs; observe_rfs loads procfs, procfs2, tools, vfs and the rfs wire.
var workloads = []workload{
	{"jobs_1cpu", func(seed int64, tr *tracer) (env, error) { return setupJobs(jobs1CPU, seed, tr) }},
	{"files_smp", func(seed int64, tr *tracer) (env, error) { return setupJobs(filesSMP, seed, tr) }},
	{"observe_rfs", func(seed int64, tr *tracer) (env, error) { return setupObserve(observeRFS, seed, tr) }},
}

// A run sets its workload up at least setupReps times, and until the
// setups have taken setupBudget of CPU time; setup_s is the median. One
// setup of jobs_1cpu takes well under a millisecond and spreads by half
// from one setup to the next, so its median needs hundreds.
const (
	setupReps   = 25
	setupBudget = time.Second
)

// phase collects the ops that finish while it is current. measure empties
// lat and wallLat at the start of each window.
type phase struct {
	lat      []int64 // op latencies on the CPU clock, ns
	wallLat  []int64 // the same on the wall clock, ns
	ops      int
	failed   int
	firstErr string
}

// done records one op that ran from start to end; fail marks the last one
// failed.
func (ph *phase) done(start, end clock) {
	ph.ops++
	ph.lat = append(ph.lat, int64(end.cpu-start.cpu))
	ph.wallLat = append(ph.wallLat, int64(end.wall.Sub(start.wall)))
}

func (ph *phase) fail(msg string) {
	ph.failed++
	if ph.firstErr == "" {
		ph.firstErr = msg
	}
}

// processCPU is the CPU time the benchmark process has used so far, user
// and system, over all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuNow is the process CPU time less the benchmark's own measurements
// (offClock).
// Op latencies, throughput and set-up time are taken on this clock rather
// than the wall clock: on a shared virtual machine the wall clock also
// counts the stretches in which the host ran other tenants instead of this
// one, and those come and go by the minute.
func cpuNow() time.Duration { return processCPU() - time.Duration(offClock.Load()) }

// clock is one reading of the CPU clock and the wall clock.
type clock struct {
	cpu  time.Duration
	wall time.Time
}

func readClock() clock { return clock{cpuNow(), time.Now()} }

// window is one stretch of a timed phase. End-to-end figures are medians
// over a run's windows, so a short burst of noise moves one window and not
// the result.
type window struct {
	ops              int
	p50, p99         float64 // CPU-clock latency, ns
	wallP50, wallP99 float64 // wall-clock latency, ns
	perCPU           float64 // ops per CPU second
	perSec           float64 // ops per wall second
	cpuUtil          float64 // CPU seconds per wall second
	heapLive         uint64
	traced           bool
}

// measured is one timed phase's outcome.
type measured struct {
	ph            *phase
	windows       []window
	scale         float64 // normalised CPU time / CPU time (refScale)
	mallocs       uint64
	before, after counters
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// liveHeap collects the garbage and returns the heap still live: what the
// program holds, counted the same way on any host. The heap in use, which
// also counts garbage not yet collected, peaked by a fifth more in quiet
// stretches of the host than in busy ones, with identical code. The
// collection's CPU time is kept off the ops' clock. It must not run beside
// the workload's own goroutines.
func liveHeap() uint64 {
	c0 := processCPU()
	runtime.GC()
	offClock.Add(int64(processCPU() - c0))
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// measure runs e's closed loop for n windows of length wlen each, sampling
// the host reference every refEvery and the live heap at each window's end.
// With a tracer, odd windows are traced and even ones not, so host drift
// during the run hits both alike.
func measure(e env, n int, wlen time.Duration, tr *tracer) (*measured, error) {
	m := &measured{ph: &phase{}, before: e.counters()}
	refs, lastRef := []float64{refSample()}, time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for len(m.windows) < n {
		traced := tr != nil && len(m.windows)%2 == 1
		if tr != nil {
			tr.on.Store(traced)
		}
		// Only the window's own latencies are kept.
		m.ph.lat, m.ph.wallLat = m.ph.lat[:0], m.ph.wallLat[:0]
		wstart, cstart := time.Now(), cpuNow()
		for {
			if err := e.tick(m.ph); err != nil {
				return nil, err
			}
			now := time.Now()
			if now.Sub(lastRef) >= refEvery {
				refs = append(refs, refSample())
				lastRef = now
			}
			if now.Sub(wstart) >= wlen {
				break
			}
		}
		wall, cpu := time.Since(wstart).Seconds(), (cpuNow() - cstart).Seconds()
		lat, wlat := m.ph.lat, m.ph.wallLat
		slices.Sort(lat)
		slices.Sort(wlat)
		// The latency buffers are the benchmark's, and they grow with the
		// host's speed: they are kept out of the live heap.
		own := uint64(cap(lat)+cap(wlat)) * 8
		m.windows = append(m.windows, window{
			ops:      len(lat),
			p50:      percentile(lat, 0.50),
			p99:      percentile(lat, 0.99),
			wallP50:  percentile(wlat, 0.50),
			wallP99:  percentile(wlat, 0.99),
			perCPU:   float64(len(lat)) / cpu,
			perSec:   float64(len(lat)) / wall,
			cpuUtil:  cpu / wall,
			heapLive: liveHeap() - own,
			traced:   traced,
		})
	}
	runtime.ReadMemStats(&ms)
	m.mallocs = ms.Mallocs - mallocs - uint64(len(refs)*refAllocs)
	m.scale = refScale(refs)
	m.after = e.counters()
	return m, nil
}

// median of one figure over the windows that keep(w).
func (m *measured) median(keep func(w window) bool, f func(w window) float64) float64 {
	var xs []float64
	for _, w := range m.windows {
		if keep(w) {
			xs = append(xs, f(w))
		}
	}
	return medianF(xs)
}

func anyWindow(window) bool { return true }

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is everything one run prints.
type report struct {
	workload  string
	seed      int64
	trace     bool
	ncpu      int
	correct   bool
	attempted int
	failed    int
	checkErr  string
	minWindow int // ops in the measured phase's smallest window
	digest    string
	metrics   []metric
	tableOnly []metric
	notes     []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return float64(sorted[rank])
}

func sorted(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianUs(xs []int64) float64 { return percentile(sorted(xs), 0.5) / 1e3 }

func meanUs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs)) / 1e3
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func perOp(n int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where traced runs write spans and the CPU profile
}

func run(cfg runConfig) (*report, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, x := range workloads {
			names = append(names, x.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	rep := &report{workload: w.name, seed: cfg.seed, trace: cfg.trace, ncpu: runtime.NumCPU()}
	tr := newTracer()
	tr.on.Store(cfg.trace)

	// Set up several times; setup_s is the median. The last one runs.
	var setups []float64
	var spent time.Duration
	var e env
	for i := 0; ; i++ {
		runtime.GC()
		t0 := cpuNow()
		x, err := w.setup(cfg.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := cpuNow() - t0
		setups = append(setups, took.Seconds())
		spent += took
		if i+1 < setupReps || spent < setupBudget {
			x.close()
			continue
		}
		e = x
		break
	}
	defer e.close()

	// Warm up. On jobs_1cpu this batch is also the digest batch; in a
	// traced run it is traced, so the digest shows tracing left the
	// simulation alone.
	warm := &phase{}
	for !e.warmed(warm) {
		if err := e.tick(warm); err != nil {
			return nil, err
		}
	}
	all := []*phase{warm}
	runtime.GC()

	// The measured time is cut into windows of a second (at least ten).
	windows := max(10, int(cfg.seconds))
	wlen := time.Duration(cfg.seconds * float64(time.Second) / float64(windows))
	var timed *measured
	var tp *tracedPhase
	var err error
	if !cfg.trace {
		timed, err = measure(e, windows, wlen, nil)
	} else {
		tp, err = measureTraced(e, tr, windows, wlen)
	}
	if err != nil {
		return nil, err
	}
	if tp != nil {
		timed = tp.timed
	}
	all = append(all, timed.ph)
	drained := &phase{}
	if err := e.drain(drained); err != nil {
		return nil, err
	}
	all = append(all, drained)

	// Output checks: every op of every phase succeeded, and the
	// workload's own end-state checks hold.
	rep.correct = true
	for _, ph := range all {
		if ph.failed > 0 {
			rep.correct = false
			rep.checkErr = fmt.Sprintf("%d failed ops; first: %s", ph.failed, ph.firstErr)
			break
		}
	}
	if err := e.check(); err != nil {
		rep.correct = false
		rep.checkErr = err.Error()
	}
	if je, ok := e.(*jobsEnv); ok && je.cfg.ncpu == 1 {
		rep.digest = je.digestHex()
	}

	ph := timed.ph
	rep.attempted, rep.failed = ph.ops, ph.failed
	for _, w := range timed.windows {
		if rep.minWindow == 0 || w.ops < rep.minWindow {
			rep.minWindow = w.ops
		}
	}
	if !cfg.trace {
		med := func(f func(w window) float64) float64 { return timed.median(anyWindow, f) }
		rep.add("ops_per_ncpu_s", med(func(w window) float64 { return w.perCPU })/timed.scale, "ops/ncpu-s")
		rep.add("op_p50_ncpu_us", med(func(w window) float64 { return w.p50 })*timed.scale/1e3, "us")
		rep.add("op_p99_ncpu_us", med(func(w window) float64 { return w.p99 })*timed.scale/1e3, "us")
		rep.add("allocs_per_op", perOp(int64(timed.mallocs), ph.ops), "allocs/op")
		rep.add("heap_live_mib", med(func(w window) float64 { return float64(w.heapLive) })/(1<<20), "MiB")
		// Set-up is normalised by the measured phase's reference samples,
		// which the short set-up phase has too few of.
		rep.add("setup_s", medianF(setups)*timed.scale, "s")
		// Printed, but kept out of the JSON metrics: the same figures on the
		// CPU clock before normalisation, and the reference's own time.
		rep.tableOnly = append(rep.tableOnly,
			metric{"ops_per_cpu_s", med(func(w window) float64 { return w.perCPU }), "ops/cpu-s"},
			metric{"op_p50_cpu_us", med(func(w window) float64 { return w.p50 }) / 1e3, "us"},
			metric{"op_p99_cpu_us", med(func(w window) float64 { return w.p99 }) / 1e3, "us"},
			metric{"setup_cpu_s", medianF(setups), "s"},
			metric{"host_ref_us", refNominal / timed.scale / 1e3, "us"})
		// Printed, but kept out of the JSON metrics: the wall clock follows
		// the host's other tenants (see cpuNow).
		rep.tableOnly = append(rep.tableOnly,
			metric{"ops_per_s", timed.median(anyWindow, func(w window) float64 { return w.perSec }), "ops/s"},
			metric{"op_p50_us", timed.median(anyWindow, func(w window) float64 { return w.wallP50 }) / 1e3, "us"},
			metric{"op_p99_us", timed.median(anyWindow, func(w window) float64 { return w.wallP99 }) / 1e3, "us"},
			metric{"cpu_util", timed.median(anyWindow, func(w window) float64 { return w.cpuUtil }), "cpu-s/s"})
		// Printed, but kept out of the JSON metrics: it is 0 on every
		// correct run, and the JSON's attempted and failed carry it.
		rep.tableOnly = append(rep.tableOnly, metric{"op_fail_ratio", perOp(int64(ph.failed), ph.ops), "failed/op"})
		return rep, nil
	}

	if err := addLayers(rep, e, tr, tp); err != nil {
		return nil, err
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
		if err := tr.write(stem + ".spans.tsv.gz"); err != nil {
			return nil, err
		}
		if err := os.WriteFile(stem+".cpu.pprof", tp.prof, 0o644); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("spans: %s.spans.tsv.gz (%d kept, %d dropped); cpu profile: %s.cpu.pprof", stem, len(tr.spans), tr.dropped, stem))
	}
	return rep, nil
}

// tracedPhase is a traced run's measured phase and what the profilers
// recorded over it.
type tracedPhase struct {
	timed     *measured
	prof      []byte  // CPU profile
	gcShare   float64 // GC CPU / busy CPU
	lockShare float64 // share of mutex wait in internal/kernel; 0 if none
}

// measureTraced measures under the CPU and mutex profilers, with spans
// recorded in every other window: the traced windows give the per-layer
// numbers, the untraced ones the base for the tracing overhead.
func measureTraced(e env, tr *tracer, n int, wlen time.Duration) (*tracedPhase, error) {
	tr.reset()
	var buf bytes.Buffer
	wait0, kern0 := mutexWait()
	runtime.SetMutexProfileFraction(1)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	gc0, busy0, err0 := cpuClasses()
	timed, err := measure(e, n, wlen, tr)
	gc1, busy1, err1 := cpuClasses()
	pprof.StopCPUProfile()
	runtime.SetMutexProfileFraction(0)
	tr.on.Store(false)
	for _, x := range []error{err, err0, err1} {
		if x != nil {
			return nil, x
		}
	}
	tp := &tracedPhase{timed: timed, prof: buf.Bytes()}
	if busy1 > busy0 {
		tp.gcShare = (gc1 - gc0) / (busy1 - busy0)
	}
	if wait1, kern1 := mutexWait(); wait1 > wait0 {
		tp.lockShare = (kern1 - kern0) / (wait1 - wait0)
	}
	return tp, nil
}

// addLayers reports the per-layer metrics of a traced run.
func addLayers(rep *report, e env, tr *tracer, tp *tracedPhase) error {
	timed := tp.timed
	ph := timed.ph
	p, err := parseProfile(tp.prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	shares := profileShares(p)
	c0, c1 := timed.before, timed.after
	ops := ph.ops
	passes, ticks := c1.passes-c0.passes, c1.ticks-c0.ticks
	if je, ok := e.(*jobsEnv); ok && je.cfg.ncpu == 1 {
		// Exact: taken over the fixed warm-up batch, not a timed window.
		passes, ticks, ops = je.dig.passes, je.dig.ticks, je.cfg.warmJobs
	}
	rep.add("kernel.step_us", medianUs(tr.durs[spStep]), "us")
	rep.add("kernel.passes_per_op", perOp(passes, ops), "passes/op")
	rep.add("kernel.sim_ticks_per_op", perOp(ticks, ops), "ticks/op")
	rep.add("kernel.spawn_us", medianUs(tr.durs[spSpawn]), "us")
	rep.add("kernel.lock_wait_share", tp.lockShare, "share")
	rep.add("runtime.sched_share", shares["runtime.sched"], "share")
	rep.add("runtime.gc_share", tp.gcShare, "share")
	for _, pkg := range []string{"kernel", "vcpu", "types", "mem", "blockfs", "vfs", "rfs", "procfs", "procfs2"} {
		rep.add(pkg+".self_share", shares[pkg], "share")
	}
	for _, k := range []uint8{kCompute, kMill, kPipe, kFork, kChurn, kScan} {
		rep.add("job."+kindNames[k]+".p50_us", medianUs(tr.kinds[k]), "us")
	}
	rep.add("blockfs.dev_reads_per_op", perOp(c1.devReads-c0.devReads, ph.ops), "calls/op")
	rep.add("blockfs.dev_writes_per_op", perOp(c1.devWrites-c0.devWrites, ph.ops), "calls/op")
	rep.add("blockfs.dev_syncs_per_op", perOp(c1.devSyncs-c0.devSyncs, ph.ops), "calls/op")
	rep.add("tools.ps_us", medianUs(tr.kinds[kPS]), "us")
	rep.add("procfs.attach_us", medianUs(tr.kinds[kAttach]), "us")
	rep.add("procfs2.status_us", medianUs(tr.kinds[kStatus]), "us")
	rep.add("procfs2.as_read_us", medianUs(tr.kinds[kAS]), "us")
	rep.add("rfs.rtt_us", medianUs(tr.durs[spRoundTrip]), "us")
	rep.add("rfs.round_trips_per_op", perOp(c1.roundTrips-c0.roundTrips, ph.ops), "rt/op")
	rep.add("rfs.server_hold_us", medianUs(tr.durs[spLockHold]), "us")
	rep.add("rfs.server_wait_us", meanUs(tr.durs[spLockWait]), "us")
	rep.add("rfs.wire_bytes_per_op", perOp(c1.wireBytes-c0.wireBytes, ph.ops), "B/op")
	rep.add("rfs.retries", float64(c1.retries), "count")
	rep.add("net.syscall_share", shares["net.syscall"], "share")
	perCPU := func(w window) float64 { return w.perCPU / timed.scale }
	baseOps := timed.median(func(w window) bool { return !w.traced }, perCPU)
	tracedOps := timed.median(func(w window) bool { return w.traced }, perCPU)
	rep.add("trace.untraced_ops_per_ncpu_s", baseOps, "ops/ncpu-s")
	rep.add("trace.traced_ops_per_ncpu_s", tracedOps, "ops/ncpu-s")
	rep.add("trace.overhead", 1-tracedOps/baseOps, "share")
	return nil
}

// print writes the human-readable table, then the JSON result line.
func (r *report) print() {
	mode := "end-to-end (untraced)"
	if r.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("perfbench %s seed=%d host_cpus=%d %s\n", r.workload, r.seed, r.ncpu, mode)
	for _, m := range append(r.metrics[:len(r.metrics):len(r.metrics)], r.tableOnly...) {
		extra := ""
		if m.name == "op_p99_ncpu_us" {
			extra = fmt.Sprintf("  (n=%d samples, >=%d per window)", r.attempted, r.minWindow)
		}
		fmt.Printf("  %-26s %14.6g %s%s\n", m.name, m.value, m.unit, extra)
	}
	for _, n := range r.notes {
		fmt.Printf("  %s\n", n)
	}
	if r.digest != "" {
		fmt.Printf("  digest %s\n", r.digest)
	}
	if !r.correct {
		fmt.Printf("  CHECK FAILED: %s\n", r.checkErr)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "jobs_1cpu", "workload: jobs_1cpu, files_smp, observe_rfs, or all three in turn")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (default 1; hold-out seed 7)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_out", "directory for a traced run's spans and CPU profile")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	for _, name := range names {
		cfg.workload = name
		rep, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.print()
		ok = ok && rep.correct
	}
	if !ok {
		os.Exit(1)
	}
}

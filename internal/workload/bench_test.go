package workload

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkWorkload runs every scenario at its default size, seed 1: each
// iteration boots a system, runs the scenario once and closes the system.
// Sub-benchmarks are named ncpu=N/scenario, with proc_scan split into its
// batched (PIOCSNAP) and legacy (per-pid) sweeps; ncpu=1 is the
// deterministic scheduler, and ncpu=<host cores> runs too when the host
// has more than one. Besides ns/op (one whole scenario run) each reports
// the scenario's own figures, averaged over the iterations: the per-op
// latency percentiles p50-ns, p95-ns and p99-ns, and the rate ops/s.
// -benchtime 1x gives one run per scenario on a freshly collected heap;
// with more iterations a run's tail also carries the collection of the
// previous runs' garbage.
//
//	go test -run '^$' -bench Workload -benchtime 1x -count 5 ./internal/workload/
func BenchmarkWorkload(b *testing.B) {
	ncpus := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		ncpus = append(ncpus, n)
	}
	for _, ncpu := range ncpus {
		for _, name := range Names() {
			modes := []string{""}
			if name == "proc_scan" {
				modes = []string{"batched", "legacy"}
			}
			for _, mode := range modes {
				sub := fmt.Sprintf("ncpu=%d/%s", ncpu, name)
				if mode != "" {
					sub += "/" + mode
				}
				cfg := Config{Seed: 1, NCPU: ncpu, Legacy: mode == "legacy"}
				b.Run(sub, func(b *testing.B) { benchScenario(b, name, cfg) })
			}
		}
	}
}

// benchScenario runs one scenario b.N times and reports the mean of its
// percentiles and the aggregate rate.
func benchScenario(b *testing.B, name string, cfg Config) {
	var p50, p95, p99 float64
	var ops int
	var elapsedNs int64
	for i := 0; i < b.N; i++ {
		res, s, err := Run(name, cfg)
		if s != nil {
			s.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
		p50 += res.P50Ns
		p95 += res.P95Ns
		p99 += res.P99Ns
		ops += res.Ops
		elapsedNs += res.ElapsedNs
	}
	n := float64(b.N)
	b.ReportMetric(p50/n, "p50-ns")
	b.ReportMetric(p95/n, "p95-ns")
	b.ReportMetric(p99/n, "p99-ns")
	if elapsedNs > 0 {
		b.ReportMetric(float64(ops)/(float64(elapsedNs)/1e9), "ops/s")
	}
}

package main

import (
	"bytes"
	"testing"
)

// metricOf finds a reported metric by name.
func metricOf(t *testing.T, rep *report, name string) float64 {
	t.Helper()
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("%s: metric %s not reported", rep.workload, name)
	return 0
}

// TestWorkloadsShort runs every workload briefly, untraced and traced, with
// all of its output checks.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(runConfig{workload: w.name, seed: 1, seconds: 0.3, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", w.name, trace, rep.correct, rep.attempted, rep.failed, rep.checkErr)
			}
			if !trace {
				for _, name := range []string{"ops_per_ncpu_s", "op_p50_ncpu_us", "op_p99_ncpu_us", "allocs_per_op", "heap_live_mib", "setup_s"} {
					if v := metricOf(t, rep, name); v <= 0 {
						t.Errorf("%s: %s = %g, want > 0", w.name, name, v)
					}
				}
				continue
			}
			// Each workload loads the layers it was chosen for.
			var want []string
			switch w.name {
			case "jobs_1cpu":
				want = []string{"vcpu.self_share", "kernel.step_us", "job.compute.p50_us", "job.fork.p50_us"}
			case "files_smp":
				want = []string{"blockfs.self_share", "blockfs.dev_writes_per_op", "job.churn.p50_us", "job.scan.p50_us"}
			case "observe_rfs":
				want = []string{"rfs.self_share", "procfs.attach_us", "rfs.rtt_us", "rfs.wire_bytes_per_op", "rfs.server_hold_us"}
			}
			for _, name := range want {
				if v := metricOf(t, rep, name); v <= 0 {
					t.Errorf("%s traced: %s = %g, want > 0", w.name, name, v)
				}
			}
			if v := metricOf(t, rep, "rfs.retries"); v != 0 {
				t.Errorf("%s: rfs.retries = %g, want 0", w.name, v)
			}
		}
	}
}

// warmDigest boots a jobs workload and returns its digest over the warm-up
// batch, after the drain and output checks.
func warmDigest(t *testing.T, cfg jobsConfig, seed int64, traced bool) string {
	t.Helper()
	tr := newTracer()
	tr.on.Store(traced)
	e, err := setupJobs(cfg, seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ph := &phase{}
	for !e.warmed(ph) {
		if err := e.tick(ph); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.drain(ph); err != nil {
		t.Fatal(err)
	}
	if err := e.check(); err != nil {
		t.Fatal(err)
	}
	if ph.failed != 0 {
		t.Fatalf("%d jobs failed: %s", ph.failed, ph.firstErr)
	}
	return e.digestHex()
}

// TestJobsDigest pins the replay property of jobs_1cpu: one seed, one
// digest — traced or not — and another seed, another digest.
func TestJobsDigest(t *testing.T) {
	cfg := jobs1CPU
	cfg.warmJobs = 300
	a := warmDigest(t, cfg, 1, false)
	if b := warmDigest(t, cfg, 1, true); a != b {
		t.Errorf("seed 1: untraced digest %s, traced %s", a, b)
	}
	if b := warmDigest(t, cfg, 1, false); a != b {
		t.Errorf("seed 1 rerun: digest %s, then %s", a, b)
	}
	if c := warmDigest(t, cfg, 7, false); a == c {
		t.Errorf("seeds 1 and 7 share digest %s", a)
	}
}

// TestDevWrapperTransparent runs a disk-backed jobs_1cpu variant (churn and
// scan jobs in the deterministic mix) with and without the counting device
// wrapper: the digests must agree.
func TestDevWrapperTransparent(t *testing.T) {
	cfg := jobs1CPU
	cfg.warmJobs = 300
	cfg.files, cfg.fileSize = 12, 4<<10
	cfg.mix = []share{{kCompute, 20}, {kMill, 20}, {kFork, 10}, {kPipe, 10}, {kChurn, 20}, {kScan, 20}}
	wrapped := warmDigest(t, cfg, 3, true)
	cfg.bare = true
	if bare := warmDigest(t, cfg, 3, false); bare != wrapped {
		t.Errorf("digest with the Dev wrapper %s, without %s", wrapped, bare)
	}
}

// TestRFSWrappersTransparent drives observe_rfs with one controller (so the
// simulation is deterministic) with and without the Transport, Locker and
// Conn wrappers: the final ps listings over rfs must be byte-identical.
func TestRFSWrappersTransparent(t *testing.T) {
	ps := func(bare bool) []byte {
		cfg := observeRFS
		cfg.controllers, cfg.bare = 1, bare
		tr := newTracer()
		tr.on.Store(!bare)
		e, err := setupObserve(cfg, 5, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		ph := &phase{}
		for i := 0; i < 300; i++ {
			if err := e.tick(ph); err != nil {
				t.Fatal(err)
			}
		}
		if ph.failed != 0 {
			t.Fatalf("bare=%v: %d requests failed: %s", bare, ph.failed, ph.firstErr)
		}
		if err := e.drain(ph); err != nil {
			t.Fatal(err)
		}
		if err := e.check(); err != nil {
			t.Fatal(err)
		}
		out, err := e.remotePS()
		if err != nil {
			t.Fatal(err)
		}
		if !bare && len(tr.durs[spRoundTrip]) == 0 {
			t.Error("wrapped run recorded no round trips")
		}
		return out
	}
	wrapped, bare := ps(false), ps(true)
	if !bytes.Equal(wrapped, bare) {
		t.Errorf("ps over rfs differs with the wrappers:\n%s---\n%s", wrapped, bare)
	}
}

// TestRefSampleOffClock checks that the host reference's CPU time stays off
// the clock the ops are timed on, and that its samples are positive.
func TestRefSampleOffClock(t *testing.T) {
	var took, shown []float64
	for i := 0; i < 21; i++ {
		c0 := cpuNow()
		ns := refSample()
		shown = append(shown, float64(cpuNow()-c0))
		if ns <= 0 {
			t.Fatalf("reference sample took %g ns", ns)
		}
		took = append(took, ns)
	}
	// What shows is getrusage's microsecond rounding, and now and then a
	// GC cycle that another thread finishes after the sample.
	if s, r := medianF(shown), medianF(took); s > r/4 {
		t.Errorf("median reference sample took %g ns; %g ns of it show on the ops' clock", r, s)
	}
}

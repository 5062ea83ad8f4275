package repro_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/types"
)

const perfSpin = "loop:\tjmp loop\n"

const perfMill = `
loop:	movi r0, SYS_getpid
	syscall
	jmp loop
`

func spawnPerf(t *testing.T, s *repro.System, name, src string) *kernel.Proc {
	t.Helper()
	p, err := s.SpawnProg(name, src, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSMPStepAllocBudget pins the steady-state allocation cost of one SMP
// scheduling pass. With incrementally maintained run queues (enqueue on
// wakeup, lazy dequeue) and persistent per-CPU workers, a pass over a
// stable fleet allocates nothing; the budget of 2 leaves headroom for
// incidental runtime allocations. A regression here means the per-pass
// queue rebuild or the per-pass goroutine spawn has come back.
func TestSMPStepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	if lockDebugEnabled {
		t.Skip("lock-order assertions allocate on every acquire")
	}
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("ncpu=%d", n), func(t *testing.T) {
			s := repro.NewSystem(repro.Options{NCPU: n})
			defer s.Close()
			for i := 0; i < 32; i++ {
				spawnPerf(t, s, fmt.Sprintf("spin%d", i), perfSpin)
			}
			s.Run(100) // workers started, queues populated, ktrace warm
			allocs := testing.AllocsPerRun(200, func() { s.Step() })
			if allocs > 2 {
				t.Errorf("ncpu=%d: %.1f allocs per pass, budget 2", n, allocs)
			}
		})
	}
}

// TestKernelStepTracedAllocFree pins the traced scheduling pass at zero
// allocations. With the kernel-wide ring on, a getpid mill emits a system
// call entry, a system call exit and a scheduling tick every pass; once the
// rings have made their one deferred allocation, emitting must allocate
// nothing. A regression here means an event has escaped to the heap again.
func TestKernelStepTracedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	s := repro.NewSystem(repro.Options{NCPU: 1})
	defer s.Close()
	s.K.EnableKTraceAll(1 << 10)
	spawnPerf(t, s, "mill", perfMill)
	s.Run(100) // rings allocated and wrapped
	if allocs := testing.AllocsPerRun(200, func() { s.Step() }); allocs != 0 {
		t.Errorf("%.1f allocs per traced pass, want 0", allocs)
	}
}

// TestSMPMutexContentionSmoke checks the tentpole claim of the fine-grained
// locking rework with the runtime's own evidence: under a syscall-heavy SMP
// load, the global kernel lock must no longer dominate mutex wait time. The
// getpid mill dispatches through the lock-free syscall class, accounting
// flushes under per-process locks, and the global lock is left with the
// narrow fork/exit/timer work — so its share of sampled contention stays
// under budget. Before this rework every syscall serialized on one lock and
// the share was, by construction, close to 100%.
func TestSMPMutexContentionSmoke(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	s := repro.NewSystem(repro.Options{NCPU: 4})
	defer s.Close()
	for i := 0; i < 12; i++ {
		spawnPerf(t, s, fmt.Sprintf("mill%d", i), perfMill)
	}
	for i := 0; i < 20000; i++ {
		s.Step()
	}

	var recs []runtime.BlockProfileRecord
	for sz := 64; ; sz *= 2 {
		recs = make([]runtime.BlockProfileRecord, sz)
		n, ok := runtime.MutexProfile(recs)
		if ok {
			recs = recs[:n]
			break
		}
	}
	var total, global, events int64
	for _, r := range recs {
		isGlobal := false
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if strings.Contains(fr.Function, "GlobalLock") ||
				strings.Contains(fr.Function, "GlobalUnlock") {
				isGlobal = true
			}
			if !more {
				break
			}
		}
		total += r.Cycles
		events += r.Count
		if isGlobal {
			global += r.Cycles
		}
	}
	if total == 0 {
		t.Logf("no mutex contention sampled across %d records — nothing waits", len(recs))
		return
	}
	share := float64(global) / float64(total)
	t.Logf("mutex contention: %d events sampled, global-lock wait share %.1f%%", events, share*100)
	// Assert only on a meaningful sample; a couple of stray events would
	// make the ratio noise.
	if events >= 10 && share > 0.90 {
		t.Errorf("global kernel lock accounts for %.1f%% of mutex wait (budget 90%%): the big kernel lock is back", share*100)
	}
}

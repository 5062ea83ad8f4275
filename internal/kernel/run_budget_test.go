package kernel

import (
	"testing"

	"repro/internal/ktrace"
	"repro/internal/vfs"
)

// Regression test: a quantum that never runs anything must not be billed.
// The phase machine used to charge InvolCtx and emit a ktSchedTick
// unconditionally on loop exit, so an LWP handed an exhausted (or zero)
// budget — which cannot have held the CPU — was charged for an involuntary
// context switch and polluted the trace stream with scheduling ticks.
func TestRunLWPNoChargeWhenNothingRan(t *testing.T) {
	k := New(vfs.NewNS(nil), Config{NCPU: 1})
	p := &Proc{k: k, Pid: 99, Comm: "t", fds: map[int]*vfs.File{}}
	k.addProc(p)
	l := p.newLWP()
	p.KT = ktrace.NewRing(64) // make ktEnabled true so a tick would be recorded

	if ran := k.runLWPOn(&k.cpu0, l, 0); ran {
		t.Fatal("zero-budget runLWPOn reported progress")
	}
	if got := p.Usage.InvolCtx; got != 0 {
		t.Fatalf("zero-budget runLWPOn charged InvolCtx = %d, want 0", got)
	}
	if n := p.KT.Len(); n != 0 {
		t.Fatalf("zero-budget runLWPOn emitted %d trace events, want 0", n)
	}

	// A gated LWP (asleep the whole quantum) is equally not billed. The
	// scheduling state is recomputed so the state mirror says LSleep, and
	// the lwpstate event that transition logs goes to a ring that is then
	// replaced, so only what the quantum itself emits is counted.
	l.sleeping = true
	l.recompute()
	p.KT = ktrace.NewRing(64)
	if ran := k.runLWPOn(&k.cpu0, l, 5); ran {
		t.Fatal("sleeping runLWPOn reported progress")
	}
	if got := p.Usage.InvolCtx; got != 0 {
		t.Fatalf("sleeping runLWPOn charged InvolCtx = %d, want 0", got)
	}
	if n := p.KT.Len(); n != 0 {
		t.Fatalf("sleeping runLWPOn emitted %d trace events, want 0", n)
	}
}

package kernel

import (
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/vfs"
)

// TestShootdownBarrier exercises the cross-CPU TLB invalidation barrier
// mechanics directly: shootdown must spin while any CPU publishes the dying
// address space and return as soon as none does, and the global-lock protocol
// must withdraw the published space before blocking (the property that makes
// the barrier deadlock-free).
func TestShootdownBarrier(t *testing.T) {
	k := New(vfs.NewNS(nil), Config{NCPU: 3})
	as := mem.NewAS(4096)
	other := mem.NewAS(4096)

	// No publisher: the barrier falls through immediately.
	k.shootdown(as)

	// A CPU publishing a different space does not hold the barrier.
	k.smp.cpus[1].curAS.Store(other)
	k.shootdown(as)
	k.smp.cpus[1].curAS.Store(nil)

	// A CPU publishing the target space holds the barrier until it
	// withdraws; the initiator must return promptly afterwards.
	w := k.smp.cpus[2]
	w.curAS.Store(as)
	done := make(chan struct{})
	go func() {
		k.shootdown(as)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("shootdown returned while a CPU still published the space")
	case <-time.After(10 * time.Millisecond):
	}
	w.curAS.Store(nil)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shootdown did not return after the publisher withdrew")
	}

	// The lock protocol: taking the global lock withdraws the published
	// space (so a lock-holding shootdown initiator cannot spin on a CPU
	// that is itself waiting for the lock), and releasing republishes it.
	w.as = as
	w.curAS.Store(as)
	w.lockGlobal()
	if got := w.curAS.Load(); got != nil {
		t.Fatal("global-lock acquisition left the address space published")
	}
	w.unlock()
	if got := w.curAS.Load(); got != as {
		t.Fatal("global-lock release did not republish the running space")
	}
	w.as = nil
	w.curAS.Store(nil)
}

// TestDeterministicModeHasNoSMP pins the default: without NCPU the kernel
// runs the deterministic single-threaded scheduler and the shootdown
// barrier is a no-op.
func TestDeterministicModeHasNoSMP(t *testing.T) {
	k := New(vfs.NewNS(nil), Config{NCPU: 1})
	if k.smp != nil || k.NCPU() != 1 {
		t.Fatalf("NCPU=1 built an SMP scheduler (NCPU() = %d)", k.NCPU())
	}
	k.shootdown(mem.NewAS(4096)) // must fall through
}

// Package kernel implements the UNIX System V process model the paper's
// /proc interface presents: processes with address spaces and credentials,
// threads of control (LWPs) with register contexts, fork/vfork/exec/exit/
// wait, a full signal machinery reproducing the issig()/psig() logic of the
// paper's Figure 4, machine-fault handling, system-call dispatch with entry
// and exit stop points (Figure 3), job control, the legacy ptrace(2)
// mechanism that /proc supersedes, and the process-control operations /proc
// is built from (directed stops, traced events of interest, run directives).
//
// Target processes execute on virtual CPUs, one scheduling pass (Step) at a
// time. Every quantum runs through one phase machine (runLWPOn) on a
// scheduler CPU: in the default deterministic mode that CPU is cpu0, run
// inline on the caller's goroutine, and the lock methods are no-ops; with
// Config.NCPU > 1 each pass fans out to per-CPU worker goroutines under the
// lock hierarchy documented on Kernel.global. Controlling programs are
// ordinary Go code that calls the control API (typically through the /proc
// file system) and drives the scheduler when it needs to wait. The
// deterministic mode is bit-for-bit reproducible, which is what the trace,
// fault and replay suites pin.
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ktrace"
	"repro/internal/mem"
	"repro/internal/vfs"
)

// Config tunes a kernel instance.
type Config struct {
	PageSize int // address-space page size (default mem.DefaultPageSize)
	Quantum  int // instructions per scheduling quantum (default 50)
	// NoTLB disables the vCPU translation fast path on every LWP: the
	// reference interpreter for differential testing.
	NoTLB bool
	// NCPU is the number of scheduler CPUs. 0 or 1 selects the
	// deterministic single-threaded scheduler (the default); above 1 each
	// Step fans the run queues out to NCPU worker goroutines with
	// work-stealing (see smp.go). Only the config sets it: nothing in the
	// host environment can turn a boot into an SMP one.
	NCPU int
}

// pidShards is the pid-map shard count (a power of two so the shard index
// is a mask). Sharding keeps pid lookups contention-free when many CPUs
// fork and look up concurrently.
const pidShards = 16

// pidShard is one shard of the pid map.
type pidShard struct {
	mu sync.RWMutex
	m  map[int]*Proc
}

// Kernel is one simulated system.
type Kernel struct {
	NS       *vfs.NS
	PageSize int
	Quantum  int
	NoTLB    bool

	// clock is the simulated time in ticks. The pass prologue and Tick
	// advance it by one; a scheduler CPU counts its quantum's instruction
	// ticks locally and folds them in (kcpu.flush) at every kernel lock
	// acquisition and at the end of the quantum, so each kernel phase reads
	// an exact clock while user-mode stepping writes no shared memory.
	clock    atomic.Int64
	pids     [pidShards]pidShard // sharded pid map
	order    []*Proc             // scheduling and readdir order
	orderMu  sync.RWMutex        // guards order for host-side readers (Procs)
	nextPid  int
	rrIndex  int           // round-robin position (deterministic scheduler)
	tableRev atomic.Uint64 // bumped on every process-table change (fork, exit, reap)

	// cpu0 is the deterministic scheduler's one CPU: Step runs every
	// quantum on it, inline on the caller's goroutine.
	cpu0 kcpu

	// SMP mode (Config.NCPU > 1). nil smp means the deterministic
	// single-threaded scheduler and none of the locks below are ever taken.
	//
	// The locking hierarchy (outermost first; see "Locking" under "SMP
	// scheduler" in INTERNALS.md for the field-by-field table):
	//
	//   1. global — the narrow global kernel lock: fork/exit/reap, exec,
	//      wait, cross-process signal generation, stop/run control,
	//      ptrace, /proc control operations, ktrace emission, and the
	//      Parent/Kids/order relations. Formerly the "big kernel lock";
	//      process-local system calls no longer take it.
	//   2. Proc.mu — one process's own state: fd table, credentials,
	//      signal dispositions and masks, usage counters, address-space
	//      operations. A global holder may lock any number of Proc.mu
	//      (the only sanctioned way to hold two); a Proc.mu holder must
	//      not take global without dropping the proc lock first
	//      (kcpu.lockGlobal implements that escalation).
	//   3. sleepMu — the sleep-queue/wait-channel lock: waitq sleeper
	//      lists and LWP-list membership, so the run-queue claim path can
	//      collect runnable LWPs without the global lock.
	//   4. runQueue.mu — one per-CPU run queue's membership and cursor.
	//
	// Rank-ordered acquisition is asserted in lockdebug builds
	// (-tags lockdebug, lockdebug_on.go).
	smp     *smpState
	global  sync.Mutex
	sleepMu sync.Mutex

	initProc *Proc
	clockQ   waitq // timed sleeps (sleep(2)) block here
	// Trace, if set, receives a line for every process-model event of
	// note (stops, signals, exits); used by tests and verbose tools.
	Trace func(format string, args ...interface{})

	// Event tracing (internal/ktrace). KT is the optional kernel-wide
	// ring; KTDefaultCap, when non-zero, gives every new process a ring of
	// that capacity; ktStats accumulates the kernel-wide counters.
	KT           *ktrace.Ring
	KTDefaultCap int
	ktStats      ktrace.Stats
	// KTTap, if set, observes every emitted trace event before it is
	// appended to any ring (so the Seq field is not yet stamped). Unlike
	// the bounded rings it never drops, which is what lets the record/
	// replay subsystem capture and verify the complete stream. Only
	// consulted on the traced path; costs nothing when tracing is off.
	KTTap func(e ktrace.Event)
}

// New creates a kernel over a name space. The conventional system processes
// 0 (sched) and 2 (pageout) are created immediately; like the paper's Figure
// 1 shows, they have no user-level address space so their /proc sizes are 0.
func New(ns *vfs.NS, cfg Config) *Kernel {
	if cfg.PageSize <= 0 {
		cfg.PageSize = mem.DefaultPageSize
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 50
	}
	k := &Kernel{
		NS:       ns,
		PageSize: cfg.PageSize,
		Quantum:  cfg.Quantum,
		NoTLB:    cfg.NoTLB,
	}
	k.cpu0.k = k
	for i := range k.pids {
		k.pids[i].m = make(map[int]*Proc)
	}
	if cfg.NCPU > 1 {
		k.smp = newSMP(k, cfg.NCPU)
	}
	k.newSystemProc(0, "sched")
	k.nextPid = 1 // init will be pid 1 when spawned
	return k
}

func (k *Kernel) tracef(format string, args ...interface{}) {
	if k.Trace != nil {
		k.Trace(format, args...)
	}
}

// Now returns the simulated clock in ticks.
func (k *Kernel) Now() int64 { return k.clock.Load() }

// Tick advances the clock without running anything (timers still fire).
func (k *Kernel) Tick() {
	k.GlobalLock()
	k.clock.Add(1)
	k.checkTimers()
	k.GlobalUnlock()
}

// GlobalLock acquires the global kernel lock. It is a no-op in
// deterministic mode, where nothing is concurrent by design; host-side
// callers (procfs control operations, ptrace controllers) use it to
// serialize against the SMP workers.
func (k *Kernel) GlobalLock() {
	if k.smp != nil {
		lockOrderAcquire(rankGlobal)
		k.global.Lock()
	}
}

// GlobalUnlock releases the global kernel lock (no-op in deterministic mode).
func (k *Kernel) GlobalUnlock() {
	if k.smp != nil {
		k.global.Unlock()
		lockOrderRelease(rankGlobal)
	}
}

// Shutdown retires the persistent SMP worker goroutines and ends the
// kernel's life: after it returns, Step panics. Deterministic kernels have
// no workers and Shutdown is a no-op. It is idempotent and safe to call
// from multiple goroutines — checkpoint/replay tears kernels down
// repeatedly, and a System.Close may race a deferred cleanup.
func (k *Kernel) Shutdown() {
	if k.smp == nil {
		return
	}
	s := k.smp
	s.shutMu.Lock()
	defer s.shutMu.Unlock()
	if s.down {
		return
	}
	s.down = true
	if s.started {
		s.started = false
		close(s.work)
	}
}

// pidShardOf returns the shard holding pid.
func (k *Kernel) pidShardOf(pid int) *pidShard {
	return &k.pids[uint(pid)&(pidShards-1)]
}

// Proc looks up a process by pid; nil if no such process.
func (k *Kernel) Proc(pid int) *Proc {
	sh := k.pidShardOf(pid)
	sh.mu.RLock()
	p := sh.m[pid]
	sh.mu.RUnlock()
	return p
}

// pidCount returns the number of pid-map entries across all shards.
func (k *Kernel) pidCount() int {
	n := 0
	for i := range k.pids {
		sh := &k.pids[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Procs returns all processes in creation order (including zombies).
func (k *Kernel) Procs() []*Proc {
	k.orderMu.RLock()
	out := append([]*Proc(nil), k.order...)
	k.orderMu.RUnlock()
	return out
}

// TableRev is the process-table revision: it advances whenever the set of
// processes (or their liveness) changes — fork, exit, reap. A caller holding
// a table snapshot compares revisions to detect churn since it was taken.
func (k *Kernel) TableRev() uint64 { return k.tableRev.Load() }

// InitProc returns process 1, if it has been spawned.
func (k *Kernel) InitProc() *Proc { return k.initProc }

func (k *Kernel) allocPid() int {
	for {
		pid := k.nextPid
		k.nextPid++
		if k.Proc(pid) == nil {
			return pid
		}
	}
}

func (k *Kernel) addProc(p *Proc) {
	if p.KT == nil && k.KTDefaultCap > 0 {
		p.KT = ktrace.NewRing(k.KTDefaultCap)
	}
	if p.Parent != nil {
		p.ppid.Store(int32(p.Parent.Pid))
	}
	sh := k.pidShardOf(p.Pid)
	sh.mu.Lock()
	sh.m[p.Pid] = p
	sh.mu.Unlock()
	k.orderMu.Lock()
	k.order = append(k.order, p)
	k.orderMu.Unlock()
	k.tableRev.Add(1)
	if p.Pid == 1 {
		k.initProc = p
	}
	k.noteSchedulable(p)
}

// removeProc drops a fully-reaped process from the tables.
func (k *Kernel) removeProc(p *Proc) {
	k.tableRev.Add(1)
	sh := k.pidShardOf(p.Pid)
	sh.mu.Lock()
	delete(sh.m, p.Pid)
	sh.mu.Unlock()
	k.orderMu.Lock()
	for i, q := range k.order {
		if q == p {
			k.order = append(k.order[:i], k.order[i+1:]...)
			break
		}
	}
	k.orderMu.Unlock()
	// The super-user can kill init through /proc. Once it is gone the
	// system has no init: orphans and new spawns are parentless, as
	// finishExit already arranges for children of a dying init.
	if p == k.initProc {
		k.initProc = nil
	}
}

// newSystemProc creates a kernel-internal process with no address space.
func (k *Kernel) newSystemProc(pid int, name string) *Proc {
	p := &Proc{
		k:      k,
		Pid:    pid,
		Comm:   name,
		Args:   []string{name},
		System: true,
		fds:    map[int]*vfs.File{},
		CWD:    "/",
		Start:  k.Now(),
	}
	k.addProc(p)
	return p
}

// BootSystemProcs creates the conventional pid-2 pageout daemon (pid 0 is
// created by New). Call after init has been spawned so pid numbering matches
// historical systems.
func (k *Kernel) BootSystemProcs() {
	if k.Proc(2) == nil {
		k.newSystemProc(2, "pageout")
		if k.nextPid <= 2 {
			k.nextPid = 3
		}
	}
}

// ErrNoProcess is returned by control operations on exited processes.
var ErrNoProcess = errors.New("kernel: no such process")

// ErrDeadlock is returned when the scheduler is asked to wait for a
// condition that no runnable process can ever satisfy.
var ErrDeadlock = errors.New("kernel: deadlock: nothing runnable")

// Step runs one scheduling pass: every runnable LWP gets up to one quantum.
// It reports whether any instruction was executed (false means the system is
// fully idle: everything blocked, stopped or exited). With Config.NCPU > 1
// the pass fans out to the SMP scheduler's worker goroutines (smp.go);
// otherwise it is the deterministic round-robin below, every quantum run
// on cpu0.
func (k *Kernel) Step() bool {
	if k.smp != nil {
		return k.stepSMP()
	}
	k.clock.Add(1)
	k.checkTimers()
	ran := false
	n := len(k.order)
	for i := 0; i < n; i++ {
		k.rrIndex = (k.rrIndex + 1) % max(1, len(k.order))
		if k.rrIndex >= len(k.order) {
			k.rrIndex = 0
		}
		p := k.order[k.rrIndex]
		if !p.Alive() || p.System {
			continue
		}
		for _, l := range p.LWPs {
			if l.Runnable() {
				if k.runLWPOn(&k.cpu0, l, k.Quantum) {
					ran = true
				}
			}
		}
	}
	return ran
}

// Run steps the scheduler until the system is idle or maxSteps have been
// taken; it returns the number of steps.
func (k *Kernel) Run(maxSteps int) int {
	for i := 0; i < maxSteps; i++ {
		if !k.Step() {
			return i
		}
	}
	return maxSteps
}

// RunUntil steps the scheduler until cond is true. It fails with ErrDeadlock
// if the system goes idle first, and with a timeout error after maxSteps.
func (k *Kernel) RunUntil(cond func() bool, maxSteps int) error {
	for i := 0; i < maxSteps; i++ {
		if cond() {
			return nil
		}
		if !k.Step() {
			if cond() {
				return nil
			}
			if !k.TimersPending() {
				return ErrDeadlock
			}
		}
	}
	if cond() {
		return nil
	}
	return fmt.Errorf("kernel: condition not reached in %d steps", maxSteps)
}

// checkTimers fires alarm(2) timers that have expired and wakes timed
// sleepers whose deadline has passed. Deterministic mode calls it bare; in
// SMP mode the caller holds the global lock (the pass prologue, Tick), and
// the per-process lock is taken around signal generation per the PostSignal
// contract.
func (k *Kernel) checkTimers() {
	now := k.Now()
	for _, p := range k.order {
		if !p.Alive() {
			continue
		}
		if at := p.alarmAt.Load(); at != 0 && now >= at {
			p.alarmAt.Store(0)
			p.Lock()
			k.PostSignal(p, sigALRM)
			p.Unlock()
		}
		for _, l := range p.LWPs {
			if l.sleeping && l.sleepQ == &k.clockQ && l.sleepDeadline != 0 && now >= l.sleepDeadline {
				l.wake()
			}
		}
	}
}

// TimersPending reports whether a future clock tick can unblock anything —
// an armed alarm or a timed sleep. It distinguishes "idle for now" from
// deadlock (Step advances the clock even when nothing runs, so pending
// timers always fire eventually).
func (k *Kernel) TimersPending() bool {
	k.GlobalLock()
	defer k.GlobalUnlock()
	for _, p := range k.order {
		if !p.Alive() {
			continue
		}
		if p.alarmAt.Load() != 0 {
			return true
		}
		for _, l := range p.LWPs {
			if l.sleeping && l.sleepDeadline != 0 {
				return true
			}
		}
	}
	return false
}

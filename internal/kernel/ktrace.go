package kernel

import "repro/internal/ktrace"

// The kernel half of the event-tracing subsystem: the emit helpers called
// from the natural control points in run.go, signal.go, proc.go and
// sysproc.go. Every hot-path call site is guarded by a nil check on the
// rings, so tracing costs two pointer comparisons when disabled.
//
// Two rings can receive an event: the per-process ring (enabled per process
// through the PCTRACE control message or Proc.SetKTrace) and the
// kernel-wide ring (Kernel.EnableKTraceAll), which records every traced
// process's events in one globally ordered stream — the oracle the
// determinism tests compare across boots.

// ktEnabled reports whether any ring would receive events for p.
func (k *Kernel) ktEnabled(p *Proc) bool { return k.KT != nil || p.KT != nil }

// EnableKTraceAll turns on the kernel-wide ring (capacity in events; <= 0
// selects the default) and arranges for every subsequently created process
// to get a per-process ring of the same capacity.
func (k *Kernel) EnableKTraceAll(capacity int) {
	k.KT = ktrace.NewRing(capacity)
	k.KTDefaultCap = k.KT.Cap()
}

// DisableKTraceAll drops the kernel-wide ring and stops auto-enabling
// per-process rings. Existing per-process rings are left alone.
func (k *Kernel) DisableKTraceAll() {
	k.KT = nil
	k.KTDefaultCap = 0
}

// KTraceStats returns the kernel-wide tracing counters. Drops are folded
// in from the kernel-wide ring; per-process ring drops are accumulated as
// they happen (ktEmit) so they survive process reaping.
func (k *Kernel) KTraceStats() ktrace.Stats {
	s := k.ktStats
	if k.KT != nil {
		s.AddDropped(k.KT.Dropped())
	}
	return s
}

// SetKTrace enables (capacity > 0), resizes, or disables (capacity == 0)
// per-process tracing — the PCTRACE control message. Disabling folds the
// ring's drop count into the kernel-wide counters before discarding it.
func (p *Proc) SetKTrace(capacity int) {
	switch {
	case capacity <= 0:
		if p.KT != nil {
			p.k.ktStats.AddDropped(p.KT.Dropped())
			p.ktDropBase = 0
			p.KT = nil
		}
	case p.KT == nil:
		p.KT = ktrace.NewRing(capacity)
	default:
		p.KT.Resize(capacity)
	}
}

// ktEmit stamps and routes one event. Callers guard with ktEnabled so the
// disabled path never reaches here. The tap gets a copy: handing a dynamic
// function the pointer would move every caller's event to the heap.
func (k *Kernel) ktEmit(p *Proc, e *ktrace.Event) {
	e.Time = k.Now()
	e.Pid = int32(p.Pid)
	k.ktStats.Count(e.Kind, e.What)
	if k.KTTap != nil {
		k.KTTap(*e)
	}
	if p.KT != nil {
		p.KT.Append(e)
		// Accumulate this ring's drops incrementally so the kernel-wide
		// counter stays right even after the process is reaped.
		if d := p.KT.Dropped(); d != p.ktDropBase {
			k.ktStats.AddDropped(d - p.ktDropBase)
			p.ktDropBase = d
		}
	}
	if k.KT != nil {
		k.KT.Append(e)
	}
}

// ktSysEntry records a system call entry with its fetched arguments. For
// calls whose first argument is a pathname, the string is captured inline in
// a follow-on KArgStr event — the address space it points into may be gone
// (exit, exec) by the time a tool drains the trace.
func (k *Kernel) ktSysEntry(l *LWP) {
	e := ktrace.Event{
		LWP: int32(l.ID), Kind: ktrace.KSysEntry,
		What: int32(l.sysNum), Args: l.sysArgs,
	}
	k.ktEmit(l.Proc, &e)
	if ktPathArg(l.sysNum) {
		if s, errno := k.copyinStr(l, l.sysArgs[0]); errno == 0 {
			// Chunked across as many events as the string needs, capped at
			// the same bound the stop-and-poll readers apply.
			if len(s) > ktArgStrCap {
				s = s[:ktArgStrCap]
			}
			for off := 0; ; off += ktrace.ArgStrMax {
				ev := ktrace.Event{LWP: int32(l.ID), Kind: ktrace.KArgStr}
				ktrace.EncodeArgStr(&ev, s, off)
				k.ktEmit(l.Proc, &ev)
				if off+ktrace.ArgStrMax >= len(s) {
					break
				}
			}
		}
	}
}

// ktArgStrCap bounds inline string capture, matching the 256-byte display
// bound tools apply when reading strings out of the address space.
const ktArgStrCap = 256

// ktPathArg reports whether a syscall's first argument is a pathname worth
// capturing inline.
func ktPathArg(num int) bool {
	switch num {
	case SysOpen, SysCreat, SysUnlink, SysExec, SysChdir, SysChmod, SysAccess:
		return true
	}
	return false
}

// ktSysExit records a system call exit with its return value and errno.
func (k *Kernel) ktSysExit(l *LWP) {
	e := ktrace.Event{
		LWP: int32(l.ID), Kind: ktrace.KSysExit,
		What: int32(l.sysNum), A: l.sysRet, B: uint32(l.sysErr),
	}
	k.ktEmit(l.Proc, &e)
}

// ktFault records a machine fault.
func (k *Kernel) ktFault(l *LWP, flt int, addr uint32) {
	e := ktrace.Event{
		LWP: int32(l.ID), Kind: ktrace.KFault, What: int32(flt), A: addr,
	}
	k.ktEmit(l.Proc, &e)
}

// ktSigPost records a signal generated for the process — before the
// discard-if-ignored logic, so the trace sees signals that no handler,
// stop, or wait status ever will.
func (k *Kernel) ktSigPost(p *Proc, sig int) {
	e := ktrace.Event{Kind: ktrace.KSigPost, What: int32(sig)}
	k.ktEmit(p, &e)
}

// ktSigDeliver records psig() acting on a signal (handler dispatch or
// default disposition).
func (k *Kernel) ktSigDeliver(l *LWP, sig int, handler uint32) {
	e := ktrace.Event{
		LWP: int32(l.ID), Kind: ktrace.KSigDeliver, What: int32(sig), A: handler,
	}
	k.ktEmit(l.Proc, &e)
}

// ktLWPState records an LWP scheduling-state transition.
func (k *Kernel) ktLWPState(l *LWP, old LState) {
	e := ktrace.Event{
		LWP: int32(l.ID), Kind: ktrace.KLWPState,
		What: int32(l.state), A: uint32(old), B: uint32(l.why),
		Args: [6]uint32{uint32(l.what)},
	}
	k.ktEmit(l.Proc, &e)
}

// ktFork records a fork from the parent's perspective.
func (k *Kernel) ktFork(p *Proc, childPid int) {
	e := ktrace.Event{Kind: ktrace.KFork, What: int32(childPid)}
	k.ktEmit(p, &e)
}

// ktExit records process termination with its wait(2) status encoding.
func (k *Kernel) ktExit(p *Proc, status int) {
	e := ktrace.Event{Kind: ktrace.KExit, What: int32(status)}
	k.ktEmit(p, &e)
}

// ktSchedTick records a quantum expiry (involuntary context switch).
func (k *Kernel) ktSchedTick(l *LWP) {
	e := ktrace.Event{LWP: int32(l.ID), Kind: ktrace.KSchedTick}
	k.ktEmit(l.Proc, &e)
}

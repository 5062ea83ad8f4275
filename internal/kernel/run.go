package kernel

import (
	"repro/internal/types"
	"repro/internal/vcpu"
)

// runLWP advances one LWP through the kernel entry/exit cycle for up to
// budget instructions. The stop points of the paper's Figure 3 are the
// transitions of this machine: system call entry, system call exit, machine
// faults, and signal receipt on the way back to user level. It returns
// whether anything ran. This is the deterministic scheduler's entry point;
// the SMP workers call runLWPOn with their own CPU.
func (k *Kernel) runLWP(l *LWP, budget int) (ran bool) {
	return k.runLWPOn(nil, l, budget)
}

// runLWPOn is the phase machine parameterized by the executing CPU.
//
// w == nil is the deterministic single-threaded mode: counters are bumped
// directly, no locks are taken, and the control flow is exactly the
// historical one, so the bit-for-bit ktrace and fault-storm suites pin the
// same behaviour they always did.
//
// w != nil is one SMP worker. The division of labor per iteration:
//
//   - User instruction stepping runs with no kernel lock at all. The only
//     per-instruction synchronization is the process's intr atomic (the
//     full signal/stop gate is taken under the global lock only when it
//     is set) and the address space's own atomics on the TLB path.
//   - System calls dispatch under the lock their class requires
//     (sysLockClass): none for pure reads of process-local atomics,
//     the per-process lock for calls that touch only the caller (brk,
//     signal masks, alarm/times, umask/nice), and the narrow global
//     lock for everything that can see another process (fork/exit/wait,
//     file ops, kill, every call that can sleep). Kernel phases that
//     touch cross-process state (signal delivery, stop events, sleeps,
//     trace emission) take the global lock lazily via w.lockGlobal()
//     and drop everything at the return to user level.
//   - The clock and usage counters accumulate in the worker and flush
//     under the per-process lock once per quantum, so the user-mode hot
//     loop performs no shared-memory writes per instruction and the
//     accounting flush never touches the global lock.
func (k *Kernel) runLWPOn(w *kcpu, l *LWP, budget int) (ran bool) {
	p := l.Proc
	// A stop, sleep or death reached during this call counts as progress
	// even when no instruction executed — the state advanced, and waiters
	// (PIOCWSTOP, poll) must get a chance to observe it.
	entryPhase, entryState := l.phase, l.state
	if w != nil {
		// Other CPUs mutate scheduling state under the global lock; this
		// worker holds nothing yet, so entry/exit observations and the
		// loop-top check below go through the atomic state mirror.
		entryState = LState(l.stateA.Load())
		w.enter(l)
	}
	defer func() {
		st := l.state
		if w != nil {
			st = LState(l.stateA.Load())
		}
		if l.phase != entryPhase || st != entryState {
			ran = true
		}
		if w != nil {
			w.leave(p)
		}
	}()
	for budget > 0 {
		if w == nil {
			if l.state == LZombie || !p.Alive() || l.Stopped() || l.sleeping {
				return ran
			}
		} else if LState(l.stateA.Load()) != LRun || !p.Alive() {
			return ran
		}
		switch l.phase {
		case phUser:
			// Natural points of control are where the process enters and
			// leaves the kernel; a pending directive or signal enters it.
			if w == nil {
				if l.dstop || l.CurSig != 0 || !p.SigPend.IsEmpty() {
					if k.issig(l, false) {
						k.psig(l)
					}
					if l.state == LZombie || !p.Alive() || l.Stopped() {
						return ran
					}
				}
			} else {
				w.unlock() // back at user level: run with no locks at all
				// The gate reads only the intr atomic: everything that sets
				// a pending signal, current signal or directed stop calls
				// noteIntr, so a clear atomic means nothing to deliver.
				if p.intr.Load() != 0 {
					w.lockGlobal()
					if l.dstop || l.CurSig != 0 || !p.SigPend.IsEmpty() {
						if k.issig(l, false) {
							k.psig(l)
						}
					} else {
						p.clearIntr()
					}
					w.unlock()
					if LState(l.stateA.Load()) != LRun || !p.Alive() {
						return ran
					}
				}
			}
			tr := l.CPU.Step()
			budget--
			ran = true
			if w == nil {
				k.clock++
				p.Usage.UserTicks++
			} else {
				w.ticks++
				w.userTicks++
			}
			switch tr.Kind {
			case vcpu.TrapNone:
			case vcpu.TrapSyscall:
				l.sysNum = int(l.CPU.Regs.R[0])
				l.sysEntryDone = false
				l.sysExitDone = false
				l.sysStored = false
				l.abortSys = false
				if w == nil {
					p.Usage.Syscalls++
				} else {
					w.syscalls++
				}
				l.phase = phSysEntry
			case vcpu.TrapFault:
				if tr.Fault == types.FLTTRACE {
					// A single step is one instruction; drop the trace bit.
					l.CPU.Regs.PSW &^= uint32(vcpu.FlagTrace)
				}
				l.CurFlt = tr.Fault
				l.FltAddr = tr.Addr
				l.fltStopDone = false
				if w == nil {
					p.Usage.Faults++
				} else {
					w.faults++
				}
				if k.ktEnabled(p) {
					if w != nil {
						w.lockGlobal()
					}
					k.ktFault(l, tr.Fault, tr.Addr)
				}
				l.phase = phFault
			}

		case phSysEntry:
			// A stop on system call entry occurs before the system has
			// fetched the arguments, so a debugger can change them.
			if !l.sysEntryDone && p.Trace.Entry.Has(l.sysNum) {
				l.sysEntryDone = true
				if w != nil {
					w.lockGlobal()
				}
				l.stopEvent(WhySysEntry, l.sysNum)
				return ran
			}
			l.sysEntryDone = true
			for i := 0; i < 5; i++ {
				l.sysArgs[i] = l.CPU.Regs.R[i+1]
			}
			l.sysArgs[5] = 0
			// The entry event is recorded after the arguments are fetched,
			// so it reflects any changes a debugger made at the entry stop.
			if k.ktEnabled(p) {
				if w != nil {
					w.lockGlobal()
				}
				k.ktSysEntry(l)
			}
			if l.abortSys {
				// PRSABORT: go directly to system call exit with EINTR.
				l.abortSys = false
				l.sysRet, l.sysR1, l.sysErr = 0, 0, EINTR
				l.phase = phSysExit
				continue
			}
			l.phase = phSysRun

		case phSysRun:
			// Re-entry here after a sleep (or a stop taken while asleep)
			// re-asks the question, as issig() within an interruptible
			// sleep does: a delivered signal makes the call fail EINTR; a
			// requested stop leaves the call undisturbed.
			if w == nil {
				if l.dstop || l.CurSig != 0 || !p.SigPend.IsEmpty() {
					if k.issig(l, true) {
						l.sysRet, l.sysR1, l.sysErr = 0, 0, EINTR
						l.phase = phSysExit
						continue
					}
					if l.state == LZombie || !p.Alive() || l.Stopped() {
						return ran
					}
				}
			} else if p.intr.Load() != 0 {
				w.lockGlobal()
				if l.dstop || l.CurSig != 0 || !p.SigPend.IsEmpty() {
					if k.issig(l, true) {
						l.sysRet, l.sysR1, l.sysErr = 0, 0, EINTR
						l.phase = phSysExit
						continue
					}
					if l.state == LZombie || !p.Alive() || l.Stopped() {
						return ran
					}
				}
			}
			if l.abortSys {
				l.abortSys = false
				l.sysRet, l.sysR1, l.sysErr = 0, 0, EINTR
				l.phase = phSysExit
				continue
			}
			if w != nil {
				// Take the lock the system call's class requires, and fold
				// the quantum's deltas in first under it so handlers that
				// read the clock or this process's own usage (time, times,
				// alarm) observe their own ticks, as they would have in
				// deterministic mode.
				switch cls := sysClassOf(l.sysNum); cls {
				case sysLockProc:
					w.lockProc()
					w.flush(p)
				case sysLockGlobal:
					w.lockGlobal()
					w.flush(p)
				}
			}
			res := k.dispatch(l)
			budget--
			ran = true
			if w == nil {
				k.clock++
				p.Usage.SysTicks++
			} else {
				w.ticks++
				w.sysTicks++
			}
			if res.NoReturn {
				return ran
			}
			if res.SleepOn != nil {
				if w != nil {
					w.lockGlobal() // wakers on other CPUs read the sleep state
				}
				l.sleep(res.SleepOn)
				return ran
			}
			l.sysRet, l.sysR1, l.sysErr = res.R0, res.R1, res.Err
			if res.SkipStore {
				l.sysStored = true
			}
			l.phase = phSysExit

		case phSysExit:
			// Return values are stored before the exit stop, so a debugger
			// can manufacture whatever values it wishes the process to see.
			if !l.sysStored {
				l.storeSysResult()
				l.sysStored = true
			}
			if !l.sysExitDone && p.Trace.Exit.Has(l.sysNum) {
				l.sysExitDone = true
				if w != nil {
					w.lockGlobal()
				}
				l.stopEvent(WhySysExit, l.sysNum)
				return ran
			}
			if k.ktEnabled(p) {
				if w != nil {
					w.lockGlobal()
				}
				k.ktSysExit(l)
			}
			if l.suspSaved != nil {
				l.SigHold = *l.suspSaved
				l.suspSaved = nil
			}
			l.sysNum = 0
			l.phase = phRetUser

		case phRetUser:
			// Just before returning to user level:
			//	if (issig()) psig();
			// issig does nothing unless a directed stop, a current signal
			// or a pending signal exists, so the deterministic scheduler
			// tests those three first, as phUser does.
			if w == nil {
				if l.dstop || l.CurSig != 0 || !p.SigPend.IsEmpty() {
					if k.issig(l, false) {
						k.psig(l)
					}
				}
				if l.state == LZombie || !p.Alive() || l.Stopped() {
					return ran
				}
			} else if p.intr.Load() != 0 {
				// The gate reads only the intr atomic: every setter of a
				// pending, current or directed-stop condition raises it,
				// and clearIntr refuses to drop it while any of them
				// remain, so a clear atomic means nothing to deliver.
				w.lockGlobal()
				if k.issig(l, false) {
					k.psig(l)
				}
				if l.state == LZombie || !p.Alive() || l.Stopped() {
					return ran
				}
			}
			l.phase = phUser

		case phFault:
			if !l.fltStopDone && p.Trace.Faults.Has(l.CurFlt) {
				l.fltStopDone = true
				if w != nil {
					w.lockGlobal()
				}
				l.stopEvent(WhyFaulted, l.CurFlt)
				return ran
			}
			flt := l.CurFlt
			if l.clearFlt {
				// PRCFAULT: the debugger repaired the cause (e.g. replaced
				// the breakpoint instruction); re-execute from the same PC.
				l.clearFlt = false
				l.CurFlt = 0
				l.phase = phRetUser
				continue
			}
			l.CurFlt = 0
			// Otherwise the process is sent a signal, normally SIGTRAP or
			// SIGILL for breakpoints.
			if sig := types.FaultSignal(flt); sig != 0 {
				if w != nil {
					w.lockGlobal()
				}
				k.PostSignal(p, sig)
			}
			l.phase = phRetUser
		}
	}
	// Quantum expiry. The involuntary context switch is charged (and the
	// scheduling tick traced) only when something actually ran: a call
	// that arrives with an exhausted budget, or spends the whole quantum
	// gated, never held the CPU and must not be billed for losing it.
	if ran {
		if w == nil {
			p.Usage.InvolCtx++
			if k.ktEnabled(p) {
				k.ktSchedTick(l)
			}
		} else {
			w.involCtx++
			if k.ktEnabled(p) {
				w.lockGlobal()
				k.ktSchedTick(l)
			}
		}
	}
	return ran
}

// storeSysResult writes the system call results into the saved registers:
// R0 = return value (or errno), R1 = second return value, with the carry
// flag signalling error in the System V convention.
func (l *LWP) storeSysResult() {
	if l.sysErr != 0 {
		l.CPU.Regs.R[0] = uint32(l.sysErr)
		l.CPU.Regs.PSW |= uint32(vcpu.FlagC)
	} else {
		l.CPU.Regs.R[0] = l.sysRet
		l.CPU.Regs.R[1] = l.sysR1
		l.CPU.Regs.PSW &^= uint32(vcpu.FlagC)
	}
}

// dispatch executes the system call the LWP has entered.
func (k *Kernel) dispatch(l *LWP) sysResult {
	num := l.sysNum
	if num < 1 || num > MaxSysNum || sysTable[num].Handler == nil {
		return rerr(ENOSYS)
	}
	return sysTable[num].Handler(k, l)
}

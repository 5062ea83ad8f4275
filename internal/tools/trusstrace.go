package tools

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/ktrace"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vfs"
)

// The trace-mode tracer: instead of making every system call entry, exit,
// signal and fault an event of interest and releasing the target from each
// stop, it enables the kernel's event ring with one control message and
// reads the report back from /procx/<pid>/trace. The target never stops, so
// the per-event cost drops from a stop/poll/run round trip to a ring append.

// attachTrace enables the event ring and opens the trace and as files. A
// child adopted after it already exited cannot take the control message, but
// its ring — inherited from the traced parent at fork — is still readable on
// the zombie, so the enable failure matters only for a live target.
func (tr *Truss) attachTrace(p *kernel.Proc) error {
	cl := tr.Client
	if cl == nil {
		cl = tr.Sys.Client(tr.Cred)
	}
	base := "/procx/" + procfs.PidName(p.Pid)
	ctl, err := cl.Open(base+"/ctl", vfs.OWrite)
	if err == nil {
		capacity := tr.TraceCap
		if capacity <= 0 {
			capacity = ktrace.DefaultCap
		}
		_, werr := ctl.Write((&procfs2.CtlBuf{}).Trace(capacity).Bytes())
		ctl.Close()
		err = werr
	}
	if err != nil && p.Alive() {
		return err
	}
	tf, err := cl.Open(base+"/trace", vfs.ORead)
	if err != nil {
		return err
	}
	as, err := cl.Open(base+"/as", vfs.ORead)
	if err != nil {
		tf.Close()
		return err
	}
	tr.targets[p.Pid] = &trussTarget{
		p: p, f: as, tf: tf,
		entry: map[int]string{}, calls: map[int]*pendCall{},
	}
	return nil
}

// runTrace drives the system until every traced process has exited. Each
// pass drains the new events from every target's trace file, merges them
// into one globally ordered report, and only then advances the scheduler.
func (tr *Truss) runTrace(maxSteps int) error {
	steps := 0
	buf := make([]byte, 256*ktrace.EventSize)
	type tev struct {
		tgt *trussTarget
		e   ktrace.Event
	}
	// Merge by emission time; within a tie, by pid then sequence. Events of
	// one process are already in sequence order, so this is a stable global
	// ordering across runs.
	merge := func(all []tev) {
		sort.SliceStable(all, func(i, j int) bool {
			a, b := all[i].e, all[j].e
			if a.Time != b.Time {
				return a.Time < b.Time
			}
			if a.Pid != b.Pid {
				return a.Pid < b.Pid
			}
			return a.Seq < b.Seq
		})
	}
	for len(tr.targets) > 0 {
		var all []tev
		for _, pid := range tr.pids() {
			tgt := tr.targets[pid]
			evs, err := tr.drainTrace(tgt, buf)
			for _, e := range evs {
				all = append(all, tev{tgt, e})
			}
			if err != nil {
				return err
			}
		}
		merge(all)
		progress := len(all) > 0
		for i := 0; i < len(all); i++ {
			before := len(tr.targets)
			tr.traceEvent(all[i].tgt, all[i].e)
			if len(tr.targets) == before {
				continue
			}
			// A child was adopted mid-stream: fold its backlog into the
			// remainder of this pass so the time ordering holds.
			known := make(map[*trussTarget]bool, len(all))
			for _, te := range all {
				known[te.tgt] = true
			}
			rest := all[i+1:]
			for _, tgt := range tr.targets {
				if known[tgt] {
					continue
				}
				evs, err := tr.drainTrace(tgt, buf)
				if err != nil {
					return err
				}
				for _, e := range evs {
					rest = append(rest, tev{tgt, e})
				}
			}
			merge(rest)
			all = append(all[:i+1], rest...)
		}
		for _, pid := range tr.pids() {
			tgt := tr.targets[pid]
			if !tgt.done && tgt.p.State() == kernel.PGone && len(tgt.pend) == 0 {
				// The target is gone from the process table and its drained
				// ring carried no final event: nothing more will ever
				// arrive, so stepping and re-polling would hang. Report the
				// loss and the exit status we can still see, and move on.
				if !tr.Summary {
					tr.printf("%5d: (target lost: process reaped before its trace completed)\n", pid)
				}
				tr.reportExitStatus(pid, tgt.p.ExitStatus)
				tgt.done = true
			}
			if tgt.done {
				tgt.tf.Close()
				tgt.f.Close()
				delete(tr.targets, pid)
				progress = true
			}
		}
		if !progress {
			if !tr.Sys.Step() && !tr.Sys.K.TimersPending() {
				return fmt.Errorf("truss: nothing runnable and %d target(s) remain", len(tr.targets))
			}
			steps++
			if steps > maxSteps {
				return fmt.Errorf("truss: exceeded %d steps", maxSteps)
			}
		}
	}
	return nil
}

// drainTrace reads and decodes every event currently available from one
// target's trace file.
func (tr *Truss) drainTrace(tgt *trussTarget, buf []byte) ([]ktrace.Event, error) {
	var evs []ktrace.Event
	for {
		n, err := tgt.tf.Pread(buf, tgt.off)
		if n > 0 {
			tgt.off += int64(n)
			tgt.pend = append(tgt.pend, buf[:n]...)
			for len(tgt.pend) >= ktrace.EventSize {
				e, derr := ktrace.DecodeEvent(tgt.pend)
				if derr != nil {
					return evs, derr
				}
				tgt.pend = tgt.pend[ktrace.EventSize:]
				evs = append(evs, e)
			}
		}
		if err != nil {
			if isEOF(err) {
				return evs, nil
			}
			if errors.Is(err, ktrace.ErrDataLoss) {
				return evs, fmt.Errorf("truss: pid %d: trace data lost; raise TraceCap", tgt.p.Pid)
			}
			// Anything else is the transport going away under us (a dead
			// rfs connection, an invalidated /proc descriptor): name it,
			// so the tool can exit with a diagnostic instead of a raw
			// protocol error.
			return evs, fmt.Errorf("truss: pid %d: trace transport lost (%v)", tgt.p.Pid, err)
		}
		if n == 0 {
			return evs, nil
		}
	}
}

// isEOF matches end-of-file both locally and through an rfs mount.
func isEOF(err error) bool {
	return err == vfs.EOF || (err != nil && err.Error() == "EOF")
}

// traceEvent turns one kernel event into the same report line the legacy
// stop-and-poll loop would have produced.
func (tr *Truss) traceEvent(tgt *trussTarget, e ktrace.Event) {
	switch e.Kind {
	case ktrace.KSysEntry:
		pc := &pendCall{num: int(e.What), args: e.Args,
			str: map[int]string{}, strOK: map[int]bool{}}
		tgt.calls[pc.num] = pc
		tgt.last = pc

	case ktrace.KArgStr:
		if tgt.last != nil {
			chunk, off, complete := ktrace.DecodeArgStr(e)
			i := int(e.What)
			if off == len(tgt.last.str[i]) {
				tgt.last.str[i] += chunk
			}
			if complete {
				tgt.last.strOK[i] = true
			}
		}

	case ktrace.KSysExit:
		num := int(e.What)
		tr.counts[num]++
		failed := e.B != 0
		if failed {
			tr.errors[num]++
		}
		pc := tgt.calls[num]
		delete(tgt.calls, num)
		if !tr.Summary {
			call := kernel.SyscallName(num) + "(...)"
			if pc != nil {
				call = tr.renderCall(num, pc.args, func(i int, addr uint32) (string, bool) {
					// Prefer the inline capture; fall back to the address
					// space for strings that did not fit, then to whatever
					// partial capture exists.
					if pc.strOK[i] {
						return pc.str[i], true
					}
					if s, ok := tr.readString(tgt, addr); ok {
						return s, true
					}
					if s, exists := pc.str[i]; exists {
						return s, true
					}
					return "", false
				})
			}
			if failed {
				tr.printf("%5d: %s = -1 %s\n", e.Pid, call, kernel.Errno(e.B))
			} else {
				tr.printf("%5d: %s = %d\n", e.Pid, call, int32(e.A))
			}
		}
		if tr.FollowForks && (num == kernel.SysFork || num == kernel.SysVfork) &&
			!failed && int32(e.A) > 0 {
			childPid := int(int32(e.A))
			if child := tr.Sys.K.Proc(childPid); child != nil && !child.System {
				if _, dup := tr.targets[childPid]; !dup {
					if err := tr.attachTrace(child); err == nil && !tr.Summary {
						tr.printf("%5d: (following new process %d)\n", e.Pid, childPid)
					}
				}
			}
		}

	case ktrace.KSigPost:
		sig := int(e.What)
		if sig == types.SIGKILL {
			return // the legacy mechanism cannot trace SIGKILL; match it
		}
		tr.signals[sig]++
		if !tr.Summary {
			tr.printf("%5d:     Received signal %s\n", e.Pid, types.SigName(sig))
		}

	case ktrace.KFault:
		flt := int(e.What)
		tr.faults[flt]++
		if !tr.Summary {
			tr.printf("%5d:     Incurred fault %s\n", e.Pid, types.FltName(flt))
		}

	case ktrace.KExit:
		tr.reportExitStatus(int(e.Pid), int(e.What))
		tgt.done = true
	}
}

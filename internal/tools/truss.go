package tools

import (
	"fmt"
	"io"
	"sort"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// Truss traces the execution of processes, producing a symbolic report of
// the system calls they execute, the faults they encounter and the signals
// they receive — the interception of system calls with /proc that the paper
// says is "at the heart of truss(1)". It requires no symbol information, can
// optionally follow children, and does not alter the behavior of a process
// other than by slowing it down.
type Truss struct {
	Sys         *repro.System
	Out         io.Writer
	Cred        types.Cred
	FollowForks bool
	// Summary suppresses the per-call report and counts calls, faults and
	// signals instead (truss -c); print the table with WriteSummary.
	Summary bool
	// UseTrace selects the event-trace mechanism: instead of stopping the
	// target at every entry, exit, signal and fault and polling for the
	// stops, the tracer enables the kernel's event ring (PCTRACE) and reads
	// the report back from /procx/<pid>/trace — the target never stops.
	UseTrace bool
	// TraceCap sizes the per-process event ring (0 selects the default).
	TraceCap int
	// Client overrides the file system client used in trace mode; an
	// rfs.Client here traces processes on a remote machine through the same
	// files. Nil means the local name space under Cred.
	Client Opener

	targets map[int]*trussTarget
	counts  map[int]int64 // syscall number -> completed calls
	errors  map[int]int64 // syscall number -> failed calls
	faults  map[int]int64 // fault number -> occurrences
	signals map[int]int64 // signal number -> receipts
	// Stats for the harnesses.
	Lines int
}

// Opener is the slice of a file system client truss needs; *vfs.Client and
// *rfs.Client both satisfy it.
type Opener interface {
	Open(path string, flags int) (*vfs.File, error)
}

type trussTarget struct {
	p     *kernel.Proc
	f     *vfs.File
	entry map[int]string // syscall number -> formatted call at entry

	// Trace mode state.
	tf    *vfs.File // /procx/<pid>/trace
	off   int64     // next byte to read from tf
	pend  []byte    // partial event carried between reads
	done  bool      // the exit event has been seen
	calls map[int]*pendCall
	last  *pendCall // most recent entry, for KArgStr attachment
}

// pendCall is a system call seen at entry and not yet exited, in trace mode.
type pendCall struct {
	num    int
	args   [6]uint32
	str    map[int]string // inline-captured string arguments
	strOK  map[int]bool   // whether the capture was complete
}

// NewTruss creates a tracer acting under cred.
func NewTruss(sys *repro.System, out io.Writer, cred types.Cred) *Truss {
	return &Truss{
		Sys: sys, Out: out, Cred: cred,
		targets: map[int]*trussTarget{},
		counts:  map[int]int64{},
		errors:  map[int]int64{},
		faults:  map[int]int64{},
		signals: map[int]int64{},
	}
}

// Attach begins tracing a process: all system call entries and exits, all
// signals, and all machine faults become events of interest (legacy mode),
// or the kernel's event ring is enabled (trace mode).
func (tr *Truss) Attach(p *kernel.Proc) error {
	if tr.UseTrace {
		return tr.attachTrace(p)
	}
	f, err := tr.Sys.OpenProc(p.Pid, vfs.ORead|vfs.OWrite, tr.Cred)
	if err != nil {
		return err
	}
	var all types.SysSet
	all.Fill()
	if err := f.Ioctl(procfs.PIOCSENTRY, &all); err != nil {
		f.Close()
		return err
	}
	if err := f.Ioctl(procfs.PIOCSEXIT, &all); err != nil {
		f.Close()
		return err
	}
	var sigs types.SigSet
	sigs.Fill()
	sigs.Del(types.SIGKILL) // SIGKILL cannot be traced
	if err := f.Ioctl(procfs.PIOCSTRACE, &sigs); err != nil {
		f.Close()
		return err
	}
	var flts types.FltSet
	flts.Fill()
	if err := f.Ioctl(procfs.PIOCSFAULT, &flts); err != nil {
		f.Close()
		return err
	}
	if tr.FollowForks {
		if err := f.Ioctl(procfs.PIOCSFORK, nil); err != nil {
			f.Close()
			return err
		}
	}
	tr.targets[p.Pid] = &trussTarget{p: p, f: f, entry: map[int]string{}}
	return nil
}

// Run drives the system until every traced process has exited, reporting
// each event. maxIdle bounds scheduler passes with no event (deadlock guard).
func (tr *Truss) Run(maxSteps int) error {
	if tr.UseTrace {
		return tr.runTrace(maxSteps)
	}
	steps := 0
	for len(tr.targets) > 0 {
		progress := false
		for _, pid := range tr.pids() {
			tgt := tr.targets[pid]
			if !tgt.p.Alive() {
				tr.reportExit(tgt)
				tgt.f.Close()
				delete(tr.targets, pid)
				progress = true
				continue
			}
			switch ev := tgt.f.Poll(vfs.PollPri); {
			case ev&vfs.PollErr != 0:
				// Polling itself failed: the /proc descriptor was
				// invalidated (set-id exec) or the transport under it died.
				// Waiting would never end, so stop tracing this target with
				// a diagnostic rather than spinning forever.
				tr.printf("%5d: (target lost: /proc descriptor failed — target died or transport disconnected)\n", pid)
				tgt.f.Close()
				delete(tr.targets, pid)
				progress = true
			case ev != 0:
				if err := tr.handleStop(tgt); err != nil {
					return err
				}
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

// pids lists the traced pids in ascending order. Both run loops visit
// targets in this order, so on a deterministic system the resume order —
// and with it the simulation and the report — is the same on every run.
func (tr *Truss) pids() []int {
	pids := make([]int, 0, len(tr.targets))
	for pid := range tr.targets {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}

// TraceToExit is the common Attach+Run combination.
func (tr *Truss) TraceToExit(p *kernel.Proc, maxSteps int) error {
	if err := tr.Attach(p); err != nil {
		return err
	}
	return tr.Run(maxSteps)
}

func (tr *Truss) printf(format string, args ...interface{}) {
	tr.Lines++
	if tr.Out != nil {
		fmt.Fprintf(tr.Out, format, args...)
	}
}

func (tr *Truss) handleStop(tgt *trussTarget) error {
	l := tgt.p.EventStoppedLWP()
	if l == nil {
		return nil
	}
	st := l.LWPStatus()
	run := kernel.RunFlags{}
	switch st.Why {
	case kernel.WhySysEntry:
		if !tr.Summary {
			tgt.entry[st.What] = tr.formatCall(tgt, st)
		}
	case kernel.WhySysExit:
		tr.counts[st.What]++
		failed := st.Reg.PSW&vcpu.FlagC != 0
		if failed {
			tr.errors[st.What]++
		}
		if !tr.Summary {
			call := tgt.entry[st.What]
			if call == "" {
				call = kernel.SyscallName(st.What) + "(...)"
			}
			delete(tgt.entry, st.What)
			if failed {
				tr.printf("%5d: %s = -1 %s\n", st.Pid, call, kernel.Errno(st.Reg.R[0]))
			} else {
				tr.printf("%5d: %s = %d\n", st.Pid, call, int32(st.Reg.R[0]))
			}
		}
		// Follow a successful fork/vfork even in summary mode — with
		// inherit-on-fork set, the child is stopped at the exit of fork
		// and must be adopted (or it would stay stopped forever). Only the
		// parent's exit reports the child pid; the child's own fork return
		// value is 0.
		if tr.FollowForks && (st.What == kernel.SysFork || st.What == kernel.SysVfork) &&
			!failed && int(st.Reg.R[0]) > 0 {
			childPid := int(st.Reg.R[0])
			if child := tr.Sys.K.Proc(childPid); child != nil && !child.System {
				if _, dup := tr.targets[childPid]; !dup {
					if err := tr.Attach(child); err == nil && !tr.Summary {
						tr.printf("%5d: (following new process %d)\n", st.Pid, childPid)
					}
				}
			}
		}
	case kernel.WhySignalled:
		tr.signals[st.What]++
		if !tr.Summary {
			tr.printf("%5d:     Received signal %s\n", st.Pid, types.SigName(st.What))
		}
		// Pass the signal on: run without clearing it; truss does not
		// alter the behavior of the process.
	case kernel.WhyFaulted:
		tr.faults[st.What]++
		if !tr.Summary {
			tr.printf("%5d:     Incurred fault %s\n", st.Pid, types.FltName(st.What))
		}
		// Likewise: the fault's conversion to a signal proceeds.
	case kernel.WhyRequested:
		// Someone else's directive; just release it.
	}
	return tr.Sys.K.RunLWP(l, run)
}

func (tr *Truss) reportExit(tgt *trussTarget) {
	tr.reportExitStatus(tgt.p.Pid, tgt.p.ExitStatus)
}

// reportExitStatus prints the termination line for a wait(2)-encoded status.
func (tr *Truss) reportExitStatus(pid, status int) {
	if tr.Summary {
		return
	}
	if ok, code := kernel.WIfExited(status); ok {
		tr.printf("%5d: _exit(%d)\n", pid, code)
		return
	}
	if ok, sig, core := kernel.WIfSignaled(status); ok {
		suffix := ""
		if core {
			suffix = " - core dumped"
		}
		tr.printf("%5d: killed by %s%s\n", pid, types.SigName(sig), suffix)
	}
}

// formatCall renders a system call with its arguments at the entry stop,
// fetching string arguments from the target's address space.
func (tr *Truss) formatCall(tgt *trussTarget, st kernel.ProcStatus) string {
	return tr.renderCall(st.What, st.SysArgs, func(i int, addr uint32) (string, bool) {
		return tr.readString(tgt, addr)
	})
}

// renderCall renders one call; str fetches a string argument by index and
// address, however the mode at hand can.
func (tr *Truss) renderCall(num int, args [6]uint32, str func(i int, addr uint32) (string, bool)) string {
	name := kernel.SyscallName(num)
	nargs := kernel.SyscallArity(num)
	out := name + "("
	for i := 0; i < nargs; i++ {
		if i > 0 {
			out += ", "
		}
		if i == 0 && takesPathArg(num) {
			if s, ok := str(i, args[0]); ok {
				out += fmt.Sprintf("%q", s)
				continue
			}
		}
		out += fmt.Sprintf("%#x", args[i])
	}
	return out + ")"
}

// takesPathArg reports whether the first argument is a pathname.
func takesPathArg(num int) bool {
	switch num {
	case kernel.SysOpen, kernel.SysCreat, kernel.SysUnlink, kernel.SysExec,
		kernel.SysChdir, kernel.SysChmod, kernel.SysAccess:
		return true
	}
	return false
}

// readString fetches a NUL-terminated string through the /proc file.
func (tr *Truss) readString(tgt *trussTarget, addr uint32) (string, bool) {
	buf := make([]byte, 256)
	n, err := tgt.f.Pread(buf, int64(addr))
	if err != nil || n == 0 {
		return "", false
	}
	for i := 0; i < n; i++ {
		if buf[i] == 0 {
			return string(buf[:i]), true
		}
	}
	return string(buf[:n]), true
}

// WriteSummary prints the truss -c style table of calls, errors, faults and
// signals accumulated by a Summary run (or any run).
func (tr *Truss) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "%-12s %8s %8s\n", "syscall", "calls", "errors")
	for num := 1; num <= kernel.MaxSysNum; num++ {
		if tr.counts[num] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12s %8d %8d\n",
			kernel.SyscallName(num), tr.counts[num], tr.errors[num])
	}
	for flt, n := range tr.faults {
		fmt.Fprintf(w, "fault %-6s %8d\n", types.FltName(flt), n)
	}
	for sig, n := range tr.signals {
		fmt.Fprintf(w, "signal %-5s %8d\n", types.SigName(sig), n)
	}
}

// Counts returns the completed-call count for one syscall number.
func (tr *Truss) Counts(num int) int64 { return tr.counts[num] }

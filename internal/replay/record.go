package replay

import (
	"errors"
	"fmt"

	"repro"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/ktrace"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// Options tunes a recording.
type Options struct {
	PageSize int
	Quantum  int
	KTCap    int // kernel-wide trace ring capacity (default 1<<20)
	NoInit   bool
}

// Recorder drives a freshly booted system and captures everything
// nondeterministic about the run. The driving program performs all host
// operations through the Recorder's methods — that is the recording
// surface; anything done behind its back is invisible to the artifact and
// will diverge on replay. The kernel's own execution needs no capturing: at
// NCPU=1 it is a pure function of the boot state and the host operations.
type Recorder struct {
	sys      *repro.System
	srv      *rfs.Server
	art      *Artifact
	steps    uint64
	finished bool
	chunks   []*evChunk
}

// evChunk is one block of the recorder's event log. Events land here
// instead of in a flat slice so the tap never pays for growth copies on the
// hot path; Finish flattens the chunks into the artifact once.
type evChunk struct {
	ev   [evChunkSize]ktrace.Event
	step [evChunkSize]uint64
	n    int
}

const evChunkSize = 4096

// ErrFinished reports use of a recorder after Finish.
var ErrFinished = errors.New("replay: recorder already finished")

// NewRecorder boots a deterministic system with tracing enabled and begins
// recording. The global fault registry is reset: a recording starts from a
// clean slate, and every arm after this point goes through ArmFaults.
func NewRecorder(o Options) *Recorder {
	if o.KTCap <= 0 {
		o.KTCap = 1 << 20
	}
	fault.Default.Reset()
	sys := repro.NewSystem(repro.Options{
		PageSize: o.PageSize, Quantum: o.Quantum, NoInit: o.NoInit, NCPU: 1,
	})
	sys.K.EnableKTraceAll(o.KTCap)
	r := &Recorder{
		sys: sys,
		art: &Artifact{
			PageSize:   o.PageSize,
			Quantum:    o.Quantum,
			KTCap:      sys.K.KT.Cap(),
			NoInit:     o.NoInit,
			StartClock: sys.K.Now(),
		},
	}
	sys.K.KTTap = func(e ktrace.Event) {
		c := r.lastChunk()
		c.ev[c.n] = e
		c.step[c.n] = r.steps
		c.n++
	}
	return r
}

func (r *Recorder) lastChunk() *evChunk {
	if n := len(r.chunks); n > 0 && r.chunks[n-1].n < evChunkSize {
		return r.chunks[n-1]
	}
	c := &evChunk{}
	r.chunks = append(r.chunks, c)
	return c
}

// System exposes the recorded system for read-only inspection (reading
// /proc files, checking process state). Mutating it other than through the
// Recorder's methods makes the recording unreplayable.
func (r *Recorder) System() *repro.System { return r.sys }

// Steps returns the number of scheduler passes recorded so far.
func (r *Recorder) Steps() uint64 { return r.steps }

func (r *Recorder) op(op Op) {
	op.Step = r.steps
	r.art.Ops = append(r.art.Ops, op)
}

// Install assembles src and installs it at path, recording the source.
func (r *Recorder) Install(path, src string, mode uint16, uid, gid int) error {
	if err := r.sys.Install(path, src, mode, uid, gid); err != nil {
		return err
	}
	r.op(Op{Kind: OpInstall, Path: path, Data: []byte(src), Mode: mode, UID: uid, GID: gid})
	return nil
}

// InstallBSL compiles bsl source and installs it at path.
func (r *Recorder) InstallBSL(path, src string, mode uint16, uid, gid int) error {
	if err := r.sys.InstallBSL(path, src, mode, uid, gid); err != nil {
		return err
	}
	r.op(Op{Kind: OpInstallBSL, Path: path, Data: []byte(src), Mode: mode, UID: uid, GID: gid})
	return nil
}

// WriteFile writes data at path verbatim.
func (r *Recorder) WriteFile(path string, data []byte, mode uint16, uid, gid int) error {
	if err := r.sys.FS.WriteFile(path, data, mode, uid, gid); err != nil {
		return err
	}
	r.op(Op{Kind: OpWriteFile, Path: path, Data: append([]byte(nil), data...), Mode: mode, UID: uid, GID: gid})
	return nil
}

// Spawn starts a program as a child of init, recording the resulting pid so
// replay can verify it lands on the same one.
func (r *Recorder) Spawn(path string, args []string, cred types.Cred) (*kernel.Proc, error) {
	p, err := r.sys.Spawn(path, args, cred)
	if err != nil {
		return nil, err
	}
	r.op(Op{Kind: OpSpawn, Path: path, Args: append([]string(nil), args...), Cred: cred, Pid: p.Pid})
	return p, nil
}

// ArmFaults applies a fault-plan command script (the /procx/faults
// language) to the global registry.
func (r *Recorder) ArmFaults(text string) error {
	if err := fault.Default.ExecAll(text); err != nil {
		return err
	}
	r.op(Op{Kind: OpFaults, Data: []byte(text)})
	return nil
}

// Ctl writes one control message to /procx/<pid>/ctl as root, open-act-close
// so no host handle outlives the operation. The op is recorded whenever the
// open succeeds: a failed batch may still have applied a prefix of itself,
// and replay must repeat exactly that.
func (r *Recorder) Ctl(pid int, msg []byte) error {
	f, err := r.sys.Client(types.RootCred()).Open(
		"/procx/"+procfs.PidName(pid)+"/ctl", vfs.OWrite)
	if err != nil {
		return err
	}
	r.op(Op{Kind: OpCtl, Pid: pid, Data: append([]byte(nil), msg...)})
	_, werr := f.Write(msg)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// Server returns the RFS server for this recording, creating it on first
// use. Its Tap records every (request, response) pair server-side — past
// the transport, so wire faults never corrupt the recorded stream.
func (r *Recorder) Server() *rfs.Server {
	if r.srv == nil {
		r.srv = rfs.NewServer(r.sys.NS, nil)
		r.srv.Tap = func(req, resp []byte) {
			r.op(Op{Kind: OpRFS,
				Data: append([]byte(nil), req...),
				Resp: append([]byte(nil), resp...)})
		}
	}
	return r.srv
}

// Step advances the simulation one scheduler pass.
func (r *Recorder) Step() bool {
	ran := r.sys.Step()
	r.steps++
	return ran
}

// Run drives the scheduler for at most n passes, stopping early when the
// system goes idle, exactly like kernel.Run. The idle-detecting pass still
// counts: it advanced the clock.
func (r *Recorder) Run(n int) int {
	for i := 0; i < n; i++ {
		if !r.Step() {
			return i
		}
	}
	return n
}

// RunUntil mirrors kernel.RunUntil through the recording step counter.
func (r *Recorder) RunUntil(cond func() bool, maxSteps int) error {
	for i := 0; i < maxSteps; i++ {
		if cond() {
			return nil
		}
		if !r.Step() {
			if cond() {
				return nil
			}
			if !r.sys.K.TimersPending() {
				return kernel.ErrDeadlock
			}
		}
	}
	if cond() {
		return nil
	}
	return fmt.Errorf("replay: RunUntil: condition not met in %d steps", maxSteps)
}

// WaitExit drives the scheduler until p exits.
func (r *Recorder) WaitExit(p *kernel.Proc) (int, error) {
	if err := r.RunUntil(func() bool { return !p.Alive() }, 10_000_000); err != nil {
		return 0, err
	}
	return p.ExitStatus, nil
}

// Finish seals the recording: the final counters, process table and step
// count go into the artifact, and the tap is detached. The recorder is dead
// afterwards; the system remains usable un-recorded.
func (r *Recorder) Finish() (*Artifact, error) {
	if r.finished {
		return nil, ErrFinished
	}
	r.finished = true
	r.sys.K.KTTap = nil
	if r.srv != nil {
		r.srv.Tap = nil
	}
	total := 0
	for _, c := range r.chunks {
		total += c.n
	}
	r.art.Events = make([]ktrace.Event, 0, total)
	r.art.EvSteps = make([]uint64, 0, total)
	for _, c := range r.chunks {
		r.art.Events = append(r.art.Events, c.ev[:c.n]...)
		r.art.EvSteps = append(r.art.EvSteps, c.step[:c.n]...)
	}
	r.chunks = nil
	r.art.Steps = r.steps
	r.art.Stats = r.sys.K.KTraceStats()
	r.art.Table = EncodeTable(r.sys.K)
	return r.art, nil
}

// EncodeTable renders the process table deterministically, one line per
// process in table order: the identity and outcome fields a replay must
// land on exactly.
func EncodeTable(k *kernel.Kernel) []byte {
	var b []byte
	for _, p := range k.Procs() {
		b = append(b, fmt.Sprintf("%d %d %q state=%d exit=%d vsz=%d sys=%d flt=%d sig=%d fork=%d\n",
			p.Pid, p.PPid(), p.Comm, p.State(), p.ExitStatus, p.VirtSize(),
			p.Usage.Syscalls, p.Usage.Faults, p.Usage.Signals, p.Usage.ForkedKids)...)
	}
	return b
}

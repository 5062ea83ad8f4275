package replay

import (
	"bytes"
	"fmt"
	"os"
	"strconv"

	"repro"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/ktrace"
	"repro/internal/memfs"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// DefaultCheckpointInterval is how often the replayer checkpoints when
// neither ReplayOptions nor REPRO_CKPT says otherwise.
const DefaultCheckpointInterval = 64

// DivergenceError reports the exact point a replay stopped matching the
// recording. EventIndex is the index into the recorded trace stream, or -1
// when the divergence was in an operation result (a spawn pid, an RFS
// response) or in the end-of-run verification.
type DivergenceError struct {
	Step       uint64
	EventIndex int
	Got, Want  string
}

// Error formats the divergence as a got/want diff.
func (e *DivergenceError) Error() string {
	where := fmt.Sprintf("step %d", e.Step)
	if e.EventIndex >= 0 {
		where += fmt.Sprintf(", event %d", e.EventIndex)
	}
	return fmt.Sprintf("replay: diverged at %s:\n  got:  %s\n  want: %s", where, e.Got, e.Want)
}

// FmtEvent renders one trace event for diffs and the dbg event listing.
func FmtEvent(e ktrace.Event) string {
	return fmt.Sprintf("t=%d pid=%d lwp=%d %s what=%d a=%#x b=%#x args=%v",
		e.Time, e.Pid, e.LWP, e.Kind, e.What, e.A, e.B, e.Args)
}

// checkpoint is one whole-system snapshot taken during replay: the kernel,
// the file system backing it, the fault registry mid-plan, the RFS server's
// fd table, and the replay cursors.
type checkpoint struct {
	step       uint64
	opIdx      int
	evIdx      int
	kern       *kernel.Snapshot
	fs         *memfs.FSState
	faults     []fault.SiteState
	rfs        *rfs.ServerState
}

// ReplayOptions tunes a replay.
type ReplayOptions struct {
	// CheckpointInterval is the number of scheduler passes between
	// whole-kernel checkpoints; 0 takes the REPRO_CKPT environment
	// variable, or the default.
	CheckpointInterval uint64
	// NoVerify disables per-event comparison against the recorded stream
	// (the checkpoints and time travel still work; divergence in op
	// results is still caught).
	NoVerify bool
}

// Replayer reconstructs a recorded run. It re-executes the kernel from the
// same boot state, re-applies each recorded host operation at its step
// ordinal, and verifies every emitted trace event against the recording as
// it goes. Checkpoints taken every K passes make Goto cheap: restore the
// nearest one at or before the target and re-execute forward.
type Replayer struct {
	art *Artifact
	sys *repro.System
	srv *rfs.Server

	step     uint64
	opIdx    int
	evIdx    int
	diverged *DivergenceError

	every  uint64
	verify bool
	ckpts  []*checkpoint
}

// CheckpointIntervalFromEnv resolves the checkpoint interval: an explicit
// option wins, then REPRO_CKPT, then the default.
func CheckpointIntervalFromEnv(opt uint64) uint64 {
	if opt > 0 {
		return opt
	}
	if s := os.Getenv("REPRO_CKPT"); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return DefaultCheckpointInterval
}

// NewReplayer boots a fresh system from the artifact's configuration and
// positions it at step 0. The global fault registry is reset, exactly as
// the recorder reset it.
func NewReplayer(art *Artifact, opts ...ReplayOptions) *Replayer {
	var o ReplayOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	fault.Default.Reset()
	sys := repro.NewSystem(repro.Options{
		PageSize: art.PageSize, Quantum: art.Quantum, NoInit: art.NoInit, NCPU: 1,
	})
	sys.K.EnableKTraceAll(art.KTCap)
	r := &Replayer{
		art:    art,
		sys:    sys,
		srv:    rfs.NewServer(sys.NS, nil),
		every:  CheckpointIntervalFromEnv(o.CheckpointInterval),
		verify: !o.NoVerify,
	}
	sys.K.KTTap = r.onEvent
	return r
}

// System exposes the replayed system for inspection (dbg reads registers,
// memory and /proc files out of it).
func (r *Replayer) System() *repro.System { return r.sys }

// Artifact returns the recording being replayed.
func (r *Replayer) Artifact() *Artifact { return r.art }

// Step returns the current position: completed scheduler passes.
func (r *Replayer) Step() uint64 { return r.step }

// Steps returns the recorded run length.
func (r *Replayer) Steps() uint64 { return r.art.Steps }

// Diverged returns the first divergence observed, or nil.
func (r *Replayer) Diverged() error {
	if r.diverged == nil {
		return nil
	}
	return r.diverged
}

// Checkpoints returns the step ordinals of the checkpoints taken so far.
func (r *Replayer) Checkpoints() []uint64 {
	out := make([]uint64, len(r.ckpts))
	for i, c := range r.ckpts {
		out[i] = c.step
	}
	return out
}

// onEvent is the tap: compare each emitted event against the recording.
func (r *Replayer) onEvent(e ktrace.Event) {
	if !r.verify {
		r.evIdx++
		return
	}
	if r.diverged != nil {
		return
	}
	if r.evIdx >= len(r.art.Events) {
		r.diverged = &DivergenceError{
			Step: r.step, EventIndex: r.evIdx,
			Got:  FmtEvent(e),
			Want: "<end of recorded stream>",
		}
		return
	}
	if want := r.art.Events[r.evIdx]; e != want {
		r.diverged = &DivergenceError{
			Step: r.step, EventIndex: r.evIdx,
			Got:  FmtEvent(e),
			Want: FmtEvent(want),
		}
		return
	}
	r.evIdx++
}

func (r *Replayer) opDiverged(got, want string) *DivergenceError {
	d := &DivergenceError{Step: r.step, EventIndex: -1, Got: got, Want: want}
	if r.diverged == nil {
		r.diverged = d
	}
	return r.diverged
}

// applyOp re-executes one recorded host operation.
func (r *Replayer) applyOp(op *Op) error {
	switch op.Kind {
	case OpInstall:
		if err := r.sys.Install(op.Path, string(op.Data), op.Mode, op.UID, op.GID); err != nil {
			return r.opDiverged(fmt.Sprintf("install %s: %v", op.Path, err),
				fmt.Sprintf("install %s: ok", op.Path))
		}
	case OpInstallBSL:
		if err := r.sys.InstallBSL(op.Path, string(op.Data), op.Mode, op.UID, op.GID); err != nil {
			return r.opDiverged(fmt.Sprintf("installbsl %s: %v", op.Path, err),
				fmt.Sprintf("installbsl %s: ok", op.Path))
		}
	case OpWriteFile:
		if err := r.sys.FS.WriteFile(op.Path, op.Data, op.Mode, op.UID, op.GID); err != nil {
			return r.opDiverged(fmt.Sprintf("writefile %s: %v", op.Path, err),
				fmt.Sprintf("writefile %s: ok", op.Path))
		}
	case OpSpawn:
		p, err := r.sys.Spawn(op.Path, op.Args, op.Cred)
		if err != nil {
			return r.opDiverged(fmt.Sprintf("spawn %s: %v", op.Path, err),
				fmt.Sprintf("spawn %s: pid %d", op.Path, op.Pid))
		}
		if p.Pid != op.Pid {
			return r.opDiverged(fmt.Sprintf("spawn %s: pid %d", op.Path, p.Pid),
				fmt.Sprintf("spawn %s: pid %d", op.Path, op.Pid))
		}
	case OpFaults:
		if err := fault.Default.ExecAll(string(op.Data)); err != nil {
			return r.opDiverged(fmt.Sprintf("faults: %v", err), "faults: ok")
		}
	case OpCtl:
		f, err := r.sys.Client(types.RootCred()).Open(
			"/procx/"+procfs.PidName(op.Pid)+"/ctl", vfs.OWrite)
		if err != nil {
			return r.opDiverged(fmt.Sprintf("ctl pid %d: open: %v", op.Pid, err),
				fmt.Sprintf("ctl pid %d: open ok", op.Pid))
		}
		// Write errors are legitimate (the recorder records a Ctl whose
		// batch partially applied); the side effects are what must match,
		// and the event stream checks those.
		f.Write(op.Data)
		f.Close()
	case OpRFS:
		resp := r.srv.Handle(op.Data)
		if !bytes.Equal(resp, op.Resp) {
			return r.opDiverged(fmt.Sprintf("rfs response %x", resp),
				fmt.Sprintf("rfs response %x", op.Resp))
		}
	default:
		return r.opDiverged(fmt.Sprintf("unknown op kind %d", op.Kind), "known op")
	}
	return r.Diverged()
}

// takeCheckpoint snapshots the whole system at the current position.
func (r *Replayer) takeCheckpoint() error {
	kern, err := r.sys.K.Snapshot()
	if err != nil {
		return err
	}
	r.ckpts = append(r.ckpts, &checkpoint{
		step:   r.step,
		opIdx:  r.opIdx,
		evIdx:  r.evIdx,
		kern:   kern,
		fs:     r.sys.FS.SaveState(),
		faults: fault.Default.SaveState(),
		rfs:    r.srv.SaveState(),
	})
	return nil
}

// restore rewinds the system to a checkpoint. The checkpoint stays
// reusable: reverse-step restores the same one over and over.
func (r *Replayer) restore(c *checkpoint) error {
	if err := r.sys.K.Restore(c.kern); err != nil {
		return err
	}
	r.sys.FS.RestoreState(c.fs)
	fault.Default.LoadState(c.faults)
	r.srv.LoadState(c.rfs)
	r.step = c.step
	r.opIdx = c.opIdx
	r.evIdx = c.evIdx
	r.diverged = nil
	return nil
}

// StepOnce advances the replay one scheduler pass: checkpoint if due, apply
// the host operations recorded at this ordinal, run the pass, verify.
func (r *Replayer) StepOnce() error {
	if r.step >= r.art.Steps {
		return fmt.Errorf("replay: already at end (step %d)", r.step)
	}
	if err := r.Diverged(); err != nil {
		return err
	}
	if r.step%r.every == 0 {
		if len(r.ckpts) == 0 || r.ckpts[len(r.ckpts)-1].step < r.step {
			if err := r.takeCheckpoint(); err != nil {
				return err
			}
		}
	}
	for r.opIdx < len(r.art.Ops) && r.art.Ops[r.opIdx].Step == r.step {
		op := &r.art.Ops[r.opIdx]
		r.opIdx++
		if err := r.applyOp(op); err != nil {
			return err
		}
	}
	r.sys.Step()
	r.step++
	return r.Diverged()
}

// RunToEnd replays to the recorded end and verifies the final state:
// trailing operations applied, every recorded event seen, counters and
// process table identical.
func (r *Replayer) RunToEnd() error {
	for r.step < r.art.Steps {
		if err := r.StepOnce(); err != nil {
			return err
		}
	}
	// Operations recorded after the last pass.
	for r.opIdx < len(r.art.Ops) && r.art.Ops[r.opIdx].Step == r.step {
		op := &r.art.Ops[r.opIdx]
		r.opIdx++
		if err := r.applyOp(op); err != nil {
			return err
		}
	}
	return r.VerifyFinal()
}

// VerifyFinal checks the end-of-run oracles. It is separate from RunToEnd
// so Goto-heavy sessions can re-verify after wandering.
func (r *Replayer) VerifyFinal() error {
	if err := r.Diverged(); err != nil {
		return err
	}
	if r.verify && r.evIdx != len(r.art.Events) {
		return r.opDiverged(
			fmt.Sprintf("%d events emitted", r.evIdx),
			fmt.Sprintf("%d events recorded", len(r.art.Events)))
	}
	if got := r.sys.K.KTraceStats(); got != r.art.Stats {
		return r.opDiverged(
			fmt.Sprintf("stats emitted=%d dropped=%d", got.Emitted, got.Dropped),
			fmt.Sprintf("stats emitted=%d dropped=%d", r.art.Stats.Emitted, r.art.Stats.Dropped))
	}
	if got := EncodeTable(r.sys.K); !bytes.Equal(got, r.art.Table) {
		return r.opDiverged("final table:\n"+string(got), "final table:\n"+string(r.art.Table))
	}
	return nil
}

// Goto positions the replay at exactly target completed passes: backward
// via the nearest checkpoint at or before the target, forward by plain
// re-execution. Checkpoints accumulate as the replay advances, so travel
// gets cheaper the more ground has been covered.
func (r *Replayer) Goto(target uint64) error {
	if target > r.art.Steps {
		return fmt.Errorf("replay: step %d beyond recorded end %d", target, r.art.Steps)
	}
	if target < r.step {
		var best *checkpoint
		for _, c := range r.ckpts {
			if c.step <= target && (best == nil || c.step > best.step) {
				best = c
			}
		}
		if best == nil {
			return fmt.Errorf("replay: no checkpoint at or before step %d", target)
		}
		if err := r.restore(best); err != nil {
			return err
		}
	}
	for r.step < target {
		if err := r.StepOnce(); err != nil {
			return err
		}
	}
	return nil
}

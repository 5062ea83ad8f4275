package workload

import (
	"fmt"
	"io"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/tools"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

// The scenario programs. Each is assembled once per run and spawned as many
// times as the operation count demands.

// progSpin burns cycles forever; the debugger fleet's victim.
const progSpin = "loop:\tjmp loop\n"

// progPause parks immediately; the cheap body of a large population.
const progPause = `
loop:	movi r0, SYS_pause
	syscall
	jmp loop
`

// progMill makes a system call per loop: the syscall-path grinder.
const progMill = `
loop:	movi r0, SYS_getpid
	syscall
	jmp loop
`

// progForkStorm forks kids children (each exits at once) and reaps them all.
func progForkStorm(kids int) string {
	return fmt.Sprintf(`
	movi r6, 0
fork:	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit	; each child exits immediately
	movi r1, 0
	syscall
parent:	addi r6, 1
	cmpi r6, %d
	jne fork
	movi r6, 0
reap:	movi r0, SYS_wait
	movi r1, 0
	syscall
	addi r6, 1
	cmpi r6, %d
	jne reap
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, kids, kids)
}

// progPipe forks; the child delays, then writes 4 x 8 bytes down a pipe;
// the parent's reads block until they arrive, then it reaps and exits.
func progPipe(delay int) string {
	return fmt.Sprintf(`
	movi r0, SYS_pipe
	syscall			; r0 = read fd, r1 = write fd
	mov r6, r0
	mov r7, r1
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r5, %d		; child: delay so the parent blocks first
cspin:	addi r5, -1
	cmpi r5, 0
	jne cspin
	movi r4, 0
wloop:	movi r0, SYS_write
	mov r1, r7
	la r2, msg
	movi r3, 8
	syscall
	addi r4, 1
	cmpi r4, 4
	jne wloop
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:	movi r4, 0
rloop:	movi r0, SYS_read	; blocks until the child's write arrives
	mov r1, r6
	la r2, buf
	movi r3, 8
	syscall
	addi r4, 1
	cmpi r4, 4
	jne rloop
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
.data
msg:	.ascii "pipeline"
buf:	.space 8
`, delay)
}

// progChurn mills one file in the /disk spool: creat, a burst of writes,
// fsync (a blockfs checkpoint), close, unlink — rounds times over — then a
// final sync(2) and exit. Each churner gets its own path so the logical
// workloads are independent while the file system underneath is shared.
//
// Any failed system call exits 1. The ISA has no branch on the carry flag,
// so each result is checked against its one success value: the churner
// holds no other descriptor, so creat returns fd 0; a write returns the
// full 512 bytes; fsync, close, unlink and sync return 0. A failure leaves
// a non-zero errno in r0, which none of these checks accepts.
func progChurn(id, rounds, writes int) string {
	return fmt.Sprintf(`
	movi r6, 0
loop:	movi r0, SYS_creat
	la r1, path
	movi r2, 420		; 0644
	syscall
	cmpi r0, 0
	jne fail
	mov r7, r0		; the churn fd
	movi r4, 0
wr:	movi r0, SYS_write
	mov r1, r7
	la r2, data
	movi r3, 512
	syscall
	cmpi r0, 512
	jne fail
	addi r4, 1
	cmpi r4, %d
	jne wr
	movi r0, SYS_fsync
	mov r1, r7
	syscall
	cmpi r0, 0
	jne fail
	movi r0, SYS_close
	mov r1, r7
	syscall
	cmpi r0, 0
	jne fail
	movi r0, SYS_unlink
	la r1, path
	syscall
	cmpi r0, 0
	jne fail
	addi r6, 1
	cmpi r6, %d
	jne loop
	movi r0, SYS_sync
	syscall
	cmpi r0, 0
	jne fail
	movi r0, SYS_exit
	movi r1, 0
	syscall
fail:	movi r0, SYS_exit
	movi r1, 1
	syscall
.data
path:	.asciz "/disk/%s/churn%d"
data:	.space 512
`, writes, rounds, churnSpool, id)
}

// churnSpool is the world-writable /disk directory the churners work in:
// they run as ordinary users, and the /disk root is root-owned 0755.
const churnSpool = "spool"

// runFSChurn measures the persistent-filesystem path from inside the
// simulation: a fleet of processes each milling creat/write/fsync/unlink on
// its own /disk file. One operation is one scheduler pass, so the samples
// capture the mill's full mix (journal commits, checkpoint flushes, block
// allocation and free). Every churner must exit 0, so every system call it
// made succeeded. After the fleet drains, the spool must be empty, and once
// it is removed the disk must be empty and structurally clean.
func runFSChurn(s *repro.System, cfg Config, h *hist) error {
	rng := cfg.rng()
	procs := orDefault(cfg.Procs, 4)
	rounds := orDefault(cfg.Ops, 6)
	if s.Disk == nil {
		return fmt.Errorf("fs_churn: system booted without a disk")
	}
	root, ok := s.Disk.Root().(vfs.DirWriter)
	if !ok {
		return fmt.Errorf("fs_churn: /disk root is not writable")
	}
	if _, err := root.VMkdir(churnSpool, 0o777, types.RootCred()); err != nil {
		return fmt.Errorf("fs_churn: mkdir /disk/%s: %v", churnSpool, err)
	}
	fleet := make([]*kernel.Proc, 0, procs)
	for i := 0; i < procs; i++ {
		path := fmt.Sprintf("/bin/churn%d", i)
		writes := 2 + rng.Intn(6)
		if err := s.Install(path, progChurn(i, rounds, writes), 0o755, 0, 0); err != nil {
			return err
		}
		p, err := s.Spawn(path, []string{fmt.Sprintf("churn%d", i)}, types.UserCred(100+i%8, 10))
		if err != nil {
			return err
		}
		fleet = append(fleet, p)
	}
	alive := func() bool {
		for _, p := range fleet {
			if p.Alive() {
				return true
			}
		}
		return false
	}
	for passes := 0; alive(); passes++ {
		if passes > 4_000_000 {
			return fmt.Errorf("fs_churn: fleet did not drain")
		}
		h.op(func() { s.Step() })
	}
	for i, p := range fleet {
		if ok, code := kernel.WIfExited(p.ExitStatus); !ok || code != 0 {
			return fmt.Errorf("fs_churn: churner %d exited with status %#x: a system call failed", i, p.ExitStatus)
		}
	}
	// Every churner unlinked its file, so the spool must come back empty;
	// without it the disk is empty, and the image must pass the
	// structural checker.
	cl := s.Client(types.RootCred())
	if ents, err := cl.ReadDir("/disk/" + churnSpool); err != nil {
		return err
	} else if len(ents) != 0 {
		return fmt.Errorf("fs_churn: %d files left in /disk/%s after drain", len(ents), churnSpool)
	}
	if err := root.VRemove(churnSpool, types.RootCred()); err != nil {
		return fmt.Errorf("fs_churn: rmdir /disk/%s: %v", churnSpool, err)
	}
	ents, err := cl.ReadDir("/disk")
	if err != nil {
		return err
	}
	if len(ents) != 0 {
		return fmt.Errorf("fs_churn: %d files left on /disk after drain", len(ents))
	}
	if bad := s.Disk.Fsck(); len(bad) != 0 {
		return fmt.Errorf("fs_churn: fsck reported %d violations: %v", len(bad), bad)
	}
	return nil
}

// runForkStorm measures process creation and reaping: one operation spawns
// a forker (family size chosen by the seeded stream) and runs its whole
// family to completion.
func runForkStorm(s *repro.System, cfg Config, h *hist) error {
	rng := cfg.rng()
	ops := orDefault(cfg.Ops, 40)
	variants := []string{"/bin/storm2", "/bin/storm3", "/bin/storm4"}
	for i, path := range variants {
		if err := s.Install(path, progForkStorm(i+2), 0o755, 0, 0); err != nil {
			return err
		}
	}
	for i := 0; i < ops; i++ {
		path := variants[rng.Intn(len(variants))]
		cred := types.UserCred(100+rng.Intn(4), 10)
		var err error
		h.op(func() {
			var p *kernel.Proc
			p, err = s.Spawn(path, []string{fmt.Sprintf("storm%d", i)}, cred)
			if err != nil {
				return
			}
			_, err = s.WaitExit(p)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runSyscallMill spawns a fleet grinding getpid and measures scheduler
// passes: one operation is one Step of the whole system.
func runSyscallMill(s *repro.System, cfg Config, h *hist) error {
	procs := orDefault(cfg.Procs, 8)
	ops := orDefault(cfg.Ops, 400)
	if err := s.Install("/bin/mill", progMill, 0o755, 0, 0); err != nil {
		return err
	}
	fleet := make([]*kernel.Proc, 0, procs)
	for i := 0; i < procs; i++ {
		p, err := s.Spawn("/bin/mill", []string{fmt.Sprintf("mill%d", i)}, types.UserCred(100+i%8, 10))
		if err != nil {
			return err
		}
		fleet = append(fleet, p)
	}
	for i := 0; i < ops; i++ {
		h.op(func() { s.Step() })
	}
	for _, p := range fleet {
		s.K.PostSignal(p, types.SIGKILL)
	}
	for _, p := range fleet {
		if _, err := s.WaitExit(p); err != nil {
			return err
		}
	}
	return nil
}

// runPipePipeline measures the blocking-I/O path: one operation spawns a
// fork+pipe pair and runs the transfer (blocked reads, wakeups, the reap)
// to completion.
func runPipePipeline(s *repro.System, cfg Config, h *hist) error {
	rng := cfg.rng()
	ops := orDefault(cfg.Ops, 30)
	variants := []string{"/bin/pipefast", "/bin/pipeslow"}
	for i, path := range variants {
		if err := s.Install(path, progPipe(60+i*140), 0o755, 0, 0); err != nil {
			return err
		}
	}
	for i := 0; i < ops; i++ {
		path := variants[rng.Intn(len(variants))]
		cred := types.UserCred(100+rng.Intn(4), 10)
		var err error
		h.op(func() {
			var p *kernel.Proc
			p, err = s.Spawn(path, []string{fmt.Sprintf("pipe%d", i)}, cred)
			if err != nil {
				return
			}
			_, err = s.WaitExit(p)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runDebuggerFleet measures attach/detach churn over a fleet of targets:
// one operation opens a seeded-random target's /proc file, stops it, reads
// its registers, sets it running and closes — the truss/dbg hot loop.
func runDebuggerFleet(s *repro.System, cfg Config, h *hist) error {
	rng := cfg.rng()
	procs := orDefault(cfg.Procs, 6)
	ops := orDefault(cfg.Ops, 80)
	if err := s.Install("/bin/target", progSpin, 0o755, 0, 0); err != nil {
		return err
	}
	fleet := make([]*kernel.Proc, 0, procs)
	for i := 0; i < procs; i++ {
		p, err := s.Spawn("/bin/target", []string{fmt.Sprintf("target%d", i)}, types.UserCred(100+i%8, 10))
		if err != nil {
			return err
		}
		fleet = append(fleet, p)
	}
	s.Run(2)
	for i := 0; i < ops; i++ {
		p := fleet[rng.Intn(len(fleet))]
		// Let the fleet make progress between attaches.
		for n := rng.Intn(3); n > 0; n-- {
			s.Step()
		}
		var err error
		h.op(func() {
			var f *vfs.File
			f, err = s.OpenProc(p.Pid, vfs.ORead|vfs.OWrite, types.RootCred())
			if err != nil {
				return
			}
			defer f.Close()
			if err = f.Ioctl(procfs.PIOCSTOP, nil); err != nil {
				return
			}
			var regs vcpu.Regs
			if err = f.Ioctl(procfs.PIOCGREG, &regs); err != nil {
				return
			}
			err = f.Ioctl(procfs.PIOCRUN, nil)
		})
		if err != nil {
			return err
		}
	}
	for _, p := range fleet {
		s.K.PostSignal(p, types.SIGKILL)
	}
	for _, p := range fleet {
		if _, err := s.WaitExit(p); err != nil {
			return err
		}
	}
	return nil
}

// runProcScan populates the system with a large fleet of parked processes
// and measures whole-table sweeps: one operation is one ps or usage sweep
// (mix chosen by the seeded stream), batched through PIOCSNAP or per-pid
// with -legacy semantics.
func runProcScan(s *repro.System, cfg Config, h *hist) error {
	rng := cfg.rng()
	procs := orDefault(cfg.Procs, 1000)
	ops := orDefault(cfg.Ops, 12)
	if err := s.Install("/bin/parked", progPause, 0o755, 0, 0); err != nil {
		return err
	}
	for i := 0; i < procs; i++ {
		if _, err := s.Spawn("/bin/parked", []string{fmt.Sprintf("parked%d", i)}, types.UserCred(100+i%16, 10)); err != nil {
			return err
		}
	}
	// Park the population: everyone runs to its pause(2) and blocks.
	s.Run(procs + 50)
	cl := s.Client(types.RootCred())
	for i := 0; i < ops; i++ {
		psSweep := rng.Intn(10) < 7
		var err error
		h.op(func() {
			switch {
			case psSweep && cfg.Legacy:
				err = tools.PSLegacy(cl, io.Discard)
			case psSweep:
				err = tools.PS(cl, io.Discard)
			case cfg.Legacy:
				err = tools.FleetUsageLegacy(cl, io.Discard)
			default:
				err = tools.FleetUsage(cl, io.Discard)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

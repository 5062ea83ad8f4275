// Package repro is a from-scratch reproduction of "The Process File System
// and Process Model in UNIX System V" (Faulkner & Gomes, USENIX Winter 1991):
// a simulated SVR4 kernel — virtual memory with copy-on-write mappings, a
// virtual CPU, the full signal/fault/system-call stop machinery, job
// control, ptrace — with the /proc file system built on top of it, exactly
// as the paper describes, plus the paper's proposed extensions (poll on proc
// files, resource usage, watchpoints) and proposed restructuring (the
// hierarchical, read/write-based /proc).
//
// A System boots a complete simulated machine:
//
//	sys := repro.NewSystem()
//	sys.Install("/bin/spin", "loop: jmp loop", 0o755, 100, 10)
//	p, _ := sys.Spawn("/bin/spin", nil, types.UserCred(100, 10))
//	f, _ := sys.Client(types.UserCred(100, 10)).Open("/proc/"+procfs.PidName(p.Pid), vfs.ORead|vfs.OWrite)
//	var st kernel.ProcStatus
//	f.Ioctl(procfs.PIOCSTOP, &st)
//
// Everything is deterministic and single-goroutine: blocking operations
// (PIOCWSTOP, pipe reads) drive the simulated scheduler until their
// condition holds.
package repro

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/blockfs"
	"repro/internal/bsl"
	"repro/internal/kernel"
	"repro/internal/memfs"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/xout"
)

// System is one booted simulated machine.
type System struct {
	K     *kernel.Kernel
	FS    *memfs.FS   // the root file system
	NS    *vfs.NS     // the name space with /proc mounted
	Proc  *procfs.FS  // the flat SVR4 /proc (mounted at /proc)
	Proc2 *procfs2.FS // the proposed hierarchical /proc (mounted at /procx)
	Disk  *blockfs.FS // the persistent file system (mounted at /disk when configured)

	diskDev blockfs.Dev
}

// InitProgram is the program run as process 1: it idles in pause(2) forever;
// orphans are reaped by the kernel on its behalf.
const InitProgram = `
; init(1M): idle forever
loop:	movi r0, SYS_pause
	syscall
	jmp loop
`

// Options tunes NewSystem.
type Options struct {
	PageSize int  // address space page size (default 4096)
	Quantum  int  // scheduler quantum in instructions (default 50)
	NoInit   bool // skip spawning init (pid numbering then starts at 1)
	// NCPU is the number of scheduler CPUs: 0 or 1 is the deterministic
	// single-threaded scheduler; above 1 enables the SMP scheduler with
	// per-CPU run queues.
	NCPU int
	// DiskBlocks, when nonzero, attaches a persistent blockfs of that many
	// BlockSize blocks at /disk — an in-memory image, or a raw image file
	// when DiskImage names a host path (created and formatted if missing,
	// remounted with journal replay if present).
	DiskBlocks int
	DiskImage  string
}

// NewSystem boots a machine: a memfs root with the conventional directories,
// the kernel with system processes 0 (sched) and 2 (pageout), init as pid 1,
// the flat /proc mounted at /proc and the restructured one at /procx.
func NewSystem(opts ...Options) *System {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	var k *kernel.Kernel
	fs := memfs.New(func() int64 {
		if k == nil {
			return 0
		}
		return k.Now()
	})
	ns := vfs.NewNS(fs.Root())
	k = kernel.New(ns, kernel.Config{PageSize: o.PageSize, Quantum: o.Quantum, NCPU: o.NCPU})
	for _, dir := range []string{"/bin", "/lib", "/etc", "/tmp", "/proc", "/procx"} {
		fs.MkdirAll(dir, 0o755)
	}
	fs.Chmod("/tmp", 0o777)

	s := &System{K: k, FS: fs, NS: ns}
	s.Proc = procfs.New(k)
	ns.Mount("/proc", s.Proc.Root())
	s.Proc2 = procfs2.New(k)
	ns.Mount("/procx", s.Proc2.Root())

	if o.DiskBlocks > 0 || o.DiskImage != "" {
		if err := s.attachDisk(o); err != nil {
			panic(fmt.Sprintf("repro: cannot attach disk: %v", err))
		}
	}

	if !o.NoInit {
		if err := s.Install("/etc/init", InitProgram, 0o755, 0, 0); err != nil {
			panic(fmt.Sprintf("repro: cannot install init: %v", err))
		}
		if _, err := k.Spawn("/etc/init", []string{"init"}, types.RootCred(), nil); err != nil {
			panic(fmt.Sprintf("repro: cannot spawn init: %v", err))
		}
	}
	k.BootSystemProcs()
	return s
}

// Assemble assembles a program with the kernel's predefined symbols
// (SYS_* system call numbers and SIG* signal numbers) available.
func (s *System) Assemble(src string) (*xout.File, error) {
	return asm.Assemble(src, &asm.Options{Predef: kernel.Predefs()})
}

// Install assembles src and writes the executable at path.
func (s *System) Install(path, src string, mode uint16, uid, gid int) error {
	img, err := s.Assemble(src)
	if err != nil {
		return err
	}
	return s.FS.WriteFile(path, img.Marshal(), mode, uid, gid)
}

// InstallBSL compiles bsl source (see internal/bsl) and installs the
// executable at path. Function names become symbols the debugger resolves.
func (s *System) InstallBSL(path, src string, mode uint16, uid, gid int) error {
	img, err := bsl.CompileToImage(src, kernel.Predefs())
	if err != nil {
		return err
	}
	return s.FS.WriteFile(path, img.Marshal(), mode, uid, gid)
}

// Spawn starts a program as a child of init.
func (s *System) Spawn(path string, args []string, cred types.Cred) (*kernel.Proc, error) {
	return s.K.Spawn(path, args, cred, nil)
}

// SpawnProg installs src at /bin/<name> and spawns it.
func (s *System) SpawnProg(name, src string, cred types.Cred) (*kernel.Proc, error) {
	path := "/bin/" + name
	if err := s.Install(path, src, 0o755, 0, 0); err != nil {
		return nil, err
	}
	return s.Spawn(path, []string{name}, cred)
}

// Client returns a controlling program's view of the name space under the
// given credentials — the lens through which debuggers, ps and truss see
// /proc.
func (s *System) Client(cred types.Cred) *vfs.Client {
	return &vfs.Client{NS: s.NS, Cred: cred}
}

// OpenProc opens /proc/<pid> with the given flags and credentials.
func (s *System) OpenProc(pid int, flags int, cred types.Cred) (*vfs.File, error) {
	return s.Client(cred).Open("/proc/"+procfs.PidName(pid), flags)
}

// Run drives the scheduler for at most n passes, returning how many ran.
func (s *System) Run(n int) int { return s.K.Run(n) }

// RunUntil drives the scheduler until cond holds.
func (s *System) RunUntil(cond func() bool, maxSteps int) error {
	return s.K.RunUntil(cond, maxSteps)
}

// WaitExit drives the scheduler until p exits and returns its status.
func (s *System) WaitExit(p *kernel.Proc) (int, error) {
	if err := s.K.RunUntil(func() bool { return !p.Alive() }, 10_000_000); err != nil {
		return 0, err
	}
	return p.ExitStatus, nil
}

// Step advances the simulation one scheduling pass, reporting whether
// anything ran; handy as the step function for vfs.Poll.
func (s *System) Step() bool { return s.K.Step() }

// attachDisk creates or opens the block device behind /disk, formats a
// fresh image, and mounts it (replaying the journal — the recovery path
// after an unclean shutdown of a file-backed image).
func (s *System) attachDisk(o Options) error {
	var dev blockfs.Dev
	if o.DiskImage != "" {
		fd, err := blockfs.OpenFileDev(o.DiskImage, uint32(o.DiskBlocks))
		if err != nil {
			return err
		}
		dev = fd
	} else {
		dev = blockfs.NewMemDev(uint32(o.DiskBlocks))
	}
	// A device whose block 0 is not a superblock is fresh: format it. A
	// device that has one but fails to mount is corrupt — that error
	// propagates rather than silently reformatting someone's data.
	formatted, err := blockfs.IsFormatted(dev)
	if err != nil {
		return err
	}
	if !formatted {
		if err := blockfs.Mkfs(dev, 0); err != nil {
			return err
		}
	}
	bfs, err := blockfs.Mount(dev, blockfs.MountOptions{Now: s.K.Now})
	if err != nil {
		return err
	}
	if err := s.NS.Mount("/disk", bfs.Root()); err != nil {
		return err
	}
	s.FS.MkdirAll("/disk", 0o755)
	s.Disk, s.diskDev = bfs, dev
	return nil
}

// Close retires the system's scheduler resources: with NCPU > 1 it stops
// the persistent per-CPU worker goroutines (after which Step must not be
// called); in deterministic mode it is a no-op. Callers that boot many SMP
// systems (tests, benchmarks) must Close each one or the workers
// accumulate. A configured disk is checkpointed and closed, so a
// file-backed image remounts clean.
func (s *System) Close() {
	if s.Disk != nil {
		s.Disk.Sync()
		s.diskDev.Close()
		s.Disk, s.diskDev = nil, nil
	}
	s.K.Shutdown()
}

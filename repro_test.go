package repro_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vfs"
)

func TestSystemBoot(t *testing.T) {
	s := repro.NewSystem()
	// The conventional processes exist: 0 sched, 1 init, 2 pageout.
	for pid, comm := range map[int]string{0: "sched", 1: "init", 2: "pageout"} {
		p := s.K.Proc(pid)
		if p == nil || p.Comm != comm {
			t.Fatalf("pid %d: %+v", pid, p)
		}
	}
	// /proc and /procx are mounted.
	cl := s.Client(types.RootCred())
	if _, err := cl.ReadDir("/proc"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadDir("/procx"); err != nil {
		t.Fatal(err)
	}
	// The conventional directories exist.
	for _, dir := range []string{"/bin", "/lib", "/etc", "/tmp"} {
		attr, err := cl.Stat(dir)
		if err != nil || attr.Type != vfs.VDIR {
			t.Fatalf("%s: %v", dir, err)
		}
	}
}

// Init can die: the super-user may kill it through /proc. The kernel then
// has no init: later orphans and spawns are parentless, and the kernel
// invariants still hold.
func TestInitDeath(t *testing.T) {
	s := repro.NewSystem(repro.Options{NCPU: 1})
	initp := s.K.InitProc()
	f, err := s.Client(types.RootCred()).Open("/procx/1/ctl", vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write((&procfs2.CtlBuf{}).Kill(types.SIGKILL).Bytes()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := s.RunUntil(func() bool { return s.K.Proc(1) == nil }, 100_000); err != nil {
		t.Fatalf("init never reaped: %v", err)
	}
	if initp.Alive() || s.K.InitProc() != nil {
		t.Fatal("the kernel still names a dead init")
	}
	p, err := s.SpawnProg("late", "\tmovi r0, SYS_exit\n\tmovi r1, 0\n\tsyscall\n", types.UserCred(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Parent != nil {
		t.Fatalf("spawn after init's death has parent %d", p.Parent.Pid)
	}
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	if err := s.K.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemNoInit(t *testing.T) {
	s := repro.NewSystem(repro.Options{NoInit: true})
	if s.K.InitProc() != nil {
		t.Fatal("NoInit should skip init")
	}
	// Processes can still be spawned (parentless).
	p, err := s.SpawnProg("solo", "\tmovi r0, SYS_exit\n\tmovi r1, 0\n\tsyscall\n", types.UserCred(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
}

func TestSystemOptions(t *testing.T) {
	s := repro.NewSystem(repro.Options{PageSize: 2048, Quantum: 10})
	p, err := s.SpawnProg("opt", "loop:\tjmp loop\n", types.UserCred(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.AS.PageSize() != 2048 {
		t.Fatalf("page size = %d", p.AS.PageSize())
	}
	s.K.PostSignal(p, types.SIGKILL)
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleErrorsSurface(t *testing.T) {
	s := repro.NewSystem()
	if err := s.Install("/bin/bad", "bogus instruction", 0o755, 0, 0); err == nil {
		t.Fatal("bad assembly should fail")
	}
	if _, err := s.Assemble("movi r1, SYS_getpid"); err != nil {
		t.Fatalf("kernel predefines should be available: %v", err)
	}
}

func TestOpenProcConvenience(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("conv", "loop:\tjmp loop\n", types.UserCred(100, 10))
	s.Run(2)
	f, err := s.OpenProc(p.Pid, vfs.ORead, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	var info kernel.PSInfo
	if err := f.Ioctl(procfs.PIOCPSINFO, &info); err != nil {
		t.Fatal(err)
	}
	if info.Comm != "conv" {
		t.Fatalf("info = %+v", info)
	}
	f.Close()
	if _, err := s.OpenProc(99999, vfs.ORead, types.RootCred()); err != vfs.ErrNotExist {
		t.Fatalf("missing pid: %v", err)
	}
}

func TestInitReapsOrphans(t *testing.T) {
	s := repro.NewSystem()
	// A parent that forks a slow child and exits immediately: the orphan
	// is reparented to init and eventually reaped after it exits.
	p, err := s.SpawnProg("abandoner", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r5, 500		; child: spin a while, then exit
spin:	addi r5, -1
	cmpi r5, 0
	jne spin
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
	movi r0, SYS_exit	; parent exits first
	movi r1, 0
	syscall
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	// Find the orphan; it should now be a child of init.
	var orphan *kernel.Proc
	for _, q := range s.K.Procs() {
		if q.Comm == "abandoner" && q.Pid != p.Pid {
			orphan = q
		}
	}
	if orphan == nil {
		t.Fatal("orphan not found (already gone?)")
	}
	if orphan.Parent != s.K.InitProc() {
		t.Fatal("orphan not reparented to init")
	}
	// When it exits it is reaped without lingering as a zombie.
	if err := s.RunUntil(func() bool { return s.K.Proc(orphan.Pid) == nil }, 2_000_000); err != nil {
		t.Fatalf("orphan never reaped: %v", err)
	}
}

func TestFullScenarioEndToEnd(t *testing.T) {
	// A miniature of the whole system: a controller encapsulating one
	// syscall of a program that also forks, with ps running alongside.
	s := repro.NewSystem()
	p, err := s.SpawnProg("scenario", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exit
	movi r1, 11
	syscall
parent:
	movi r0, SYS_wait
	movi r1, 0
	syscall
	shr r1, 8
	movi r0, SYS_exit
	syscall
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenProc(p.Pid, vfs.ORead|vfs.OWrite, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Trace exit from wait; forge the child's status so the parent exits
	// with a different code.
	var set types.SysSet
	set.Add(kernel.SysWait)
	if err := f.Ioctl(procfs.PIOCSEXIT, &set); err != nil {
		t.Fatal(err)
	}
	var st kernel.ProcStatus
	if err := f.Ioctl(procfs.PIOCWSTOP, &st); err != nil {
		t.Fatal(err)
	}
	if st.Why != kernel.WhySysExit || st.What != kernel.SysWait {
		t.Fatalf("stop: %+v", st)
	}
	st.Reg.R[1] = 77 << 8 // forged wait status
	if err := f.Ioctl(procfs.PIOCSREG, &st.Reg); err != nil {
		t.Fatal(err)
	}
	if err := f.Ioctl(procfs.PIOCRUN, nil); err != nil {
		t.Fatal(err)
	}
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(status); code != 77 {
		t.Fatalf("code = %d, want the forged 77", code)
	}
}

func TestTwoSystemsAreIndependent(t *testing.T) {
	s1 := repro.NewSystem()
	s2 := repro.NewSystem()
	p1, _ := s1.SpawnProg("a", "loop:\tjmp loop\n", types.UserCred(1, 1))
	s1.Run(10)
	if s2.K.Proc(p1.Pid) != nil && s2.K.Proc(p1.Pid).Comm == "a" {
		t.Fatal("systems share state")
	}
	if s2.K.Now() >= s1.K.Now() {
		t.Fatal("clocks should be independent (s1 ran more)")
	}
}

func TestInitProgramText(t *testing.T) {
	if !strings.Contains(repro.InitProgram, "SYS_pause") {
		t.Fatal("init should idle in pause")
	}
}

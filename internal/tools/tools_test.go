package tools_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/tools"
	"repro/internal/types"
)

func TestPSOutput(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("worker", `
loop:	jmp loop
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	var out strings.Builder
	if err := tools.PS(s.Client(types.RootCred()), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"PID", "sched", "init", "pageout", "worker"} {
		if !strings.Contains(text, want) {
			t.Fatalf("ps output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "100") {
		t.Fatal("worker uid missing")
	}
	_ = p
}

func TestPSIsPerLineSnapshot(t *testing.T) {
	// Kill a process between readdir and ps's open: its line just drops.
	s := repro.NewSystem()
	p, _ := s.SpawnProg("ephemeral", `
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, types.UserCred(100, 10))
	if _, err := s.WaitExit(p); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := tools.PS(s.Client(types.RootCred()), &out); err != nil {
		t.Fatal(err)
	}
	// init auto-reaped it; ps must not error or show it.
	if strings.Contains(out.String(), "ephemeral") {
		t.Fatal("reaped process still shown")
	}
}

func TestLsProcFigure1(t *testing.T) {
	s := repro.NewSystem()
	s.SpawnProg("app", `
loop:	jmp loop
`, types.UserCred(205, 20))
	s.Run(3)
	names := func(uid, gid int) (string, string) {
		users := map[int]string{0: "root", 205: "weath"}
		groups := map[int]string{0: "root", 20: "staff"}
		u, ok := users[uid]
		if !ok {
			u = "???"
		}
		g, ok := groups[gid]
		if !ok {
			g = "???"
		}
		return u, g
	}
	var out strings.Builder
	if err := tools.LsProc(s.Client(types.RootCred()), &out, names); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", text)
	}
	// Figure 1 shape: -rw------- mode, owner, size, pid name.
	if !strings.HasPrefix(lines[0], "-rw-------") {
		t.Fatalf("first line %q", lines[0])
	}
	if !strings.Contains(text, "00000") || !strings.Contains(text, "00002") {
		t.Fatal("system process entries missing")
	}
	if !strings.Contains(text, "weath") || !strings.Contains(text, "staff") {
		t.Fatal("user/group names missing")
	}
}

func TestPrMapFigure2(t *testing.T) {
	s := repro.NewSystem()
	if err := s.Install("/lib/libx", "fn:\tret\n.data\nd:\t.word 1\n", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	p, err := s.SpawnProg("mapme", `
.lib "libx"
loop:	jmp loop
.data
msg:	.ascii "hello"
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	var out strings.Builder
	if err := tools.PrMap(s.Client(types.RootCred()), p.Pid, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"80000000", "read/exec", "read/write",
		"[text]", "[data]", "[stack]", "[break]", "C0000000", "/lib/libx"} {
		if !strings.Contains(text, want) {
			t.Fatalf("prmap output missing %q:\n%s", want, text)
		}
	}
}

func TestTrussBasic(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("traced", `
	movi r0, SYS_getpid
	syscall
	movi r0, SYS_open
	la r1, path
	movi r2, 1
	syscall
	movi r0, SYS_exit
	movi r1, 3
	syscall
.data
path:	.asciz "/etc/init"
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	tr := tools.NewTruss(s, &out, types.RootCred())
	if err := tr.TraceToExit(p, 2_000_000); err != nil {
		t.Fatalf("%v\noutput so far:\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"getpid()",
		`open("/etc/init", 0x1)`,
		"_exit(3)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("truss output missing %q:\n%s", want, text)
		}
	}
	// Return values appear.
	if !strings.Contains(text, "= "+itoa(p.Pid)) {
		t.Fatalf("getpid return value missing:\n%s", text)
	}
}

func itoa(n int) string {
	return strings.TrimSpace(strings.Replace(strings.Repeat("", 0)+sprintInt(n), "\n", "", -1))
}

func sprintInt(n int) string {
	var b strings.Builder
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	b.Write(digits)
	return b.String()
}

func TestTrussReportsErrno(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("failer", `
	movi r0, SYS_open
	la r1, path
	movi r2, 1
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
.data
path:	.asciz "/no/such/file"
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	tr := tools.NewTruss(s, &out, types.RootCred())
	if err := tr.TraceToExit(p, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "= -1 ENOENT") {
		t.Fatalf("errno missing:\n%s", out.String())
	}
}

func TestTrussSignalsAndFaults(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("faulty", `
	movi r1, 4
	movi r2, 0
	div r1, r2		; FLTIZDIV -> SIGFPE -> death with core
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	tr := tools.NewTruss(s, &out, types.RootCred())
	if err := tr.TraceToExit(p, 2_000_000); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Incurred fault FLTIZDIV") {
		t.Fatalf("fault report missing:\n%s", text)
	}
	if !strings.Contains(text, "Received signal SIGFPE") {
		t.Fatalf("signal report missing:\n%s", text)
	}
	if !strings.Contains(text, "killed by SIGFPE - core dumped") {
		t.Fatalf("death report missing:\n%s", text)
	}
}

func TestTrussFollowsForks(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("forker", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_getuid	; child does something visible
	syscall
	movi r0, SYS_exit
	movi r1, 9
	syscall
parent:
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	tr := tools.NewTruss(s, &out, types.RootCred())
	tr.FollowForks = true
	if err := tr.TraceToExit(p, 4_000_000); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "following new process") {
		t.Fatalf("fork not followed:\n%s", text)
	}
	if !strings.Contains(text, "_exit(9)") {
		t.Fatalf("child exit not seen:\n%s", text)
	}
	if !strings.Contains(text, "getuid()") {
		t.Fatalf("child syscall not traced:\n%s", text)
	}
}

// TestTrussFollowDeterministic traces a family of four processes with the
// legacy stop-and-poll loop at NCPU=1 and demands the same report on every
// run: the loop resumes its targets in pid order, so the interleaving of
// the family — and the report that records it — cannot vary.
func TestTrussFollowDeterministic(t *testing.T) {
	run := func() string {
		s := repro.NewSystem(repro.Options{NCPU: 1})
		p, err := s.SpawnProg("forker2", `
	movi r0, SYS_fork
	syscall
	movi r0, SYS_fork
	syscall
	movi r0, SYS_getuid
	syscall
	movi r0, SYS_getpid
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, types.UserCred(100, 10))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		tr := tools.NewTruss(s, &out, types.RootCred())
		tr.FollowForks = true
		if err := tr.TraceToExit(p, 4_000_000); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		return out.String()
	}
	first := run()
	if n := strings.Count(first, "following new process"); n != 3 {
		t.Fatalf("followed %d children, want 3:\n%s", n, first)
	}
	for i := 1; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs from the first:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestDebuggerBreakpoints(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("debugme", `
.entry main
counter_fn:
	la r3, count
	ld r4, [r3]
	addi r4, 1
	st r4, [r3]
	ret
main:
	movi r5, 3
loop:	call counter_fn
	addi r5, -1
	cmpi r5, 0
	jne loop
	movi r0, SYS_exit
	la r3, count
	ld r1, [r3]
	syscall
.data
count:	.word 0
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	d, err := tools.NewDebugger(s, p, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := d.Lookup("counter_fn")
	if !ok {
		t.Fatal("symbol lookup failed")
	}
	if err := d.SetBreak(fn); err != nil {
		t.Fatal(err)
	}
	// Hit the breakpoint three times, inspecting the counter each time.
	for hit := 0; hit < 3; hit++ {
		st, err := d.Cont()
		if err != nil {
			t.Fatalf("hit %d: %v", hit, err)
		}
		if st.Why != kernel.WhyFaulted || st.What != types.FLTBPT {
			t.Fatalf("hit %d: why=%v what=%d", hit, st.Why, st.What)
		}
		if st.Reg.PC != fn {
			t.Fatalf("hit %d: pc=%#x want %#x", hit, st.Reg.PC, fn)
		}
		if got := d.SymAt(st.Reg.PC); got != "counter_fn" {
			t.Fatalf("SymAt = %q", got)
		}
		// The counter has been incremented hit times so far.
		cnt, _ := d.Lookup("count")
		mem, err := d.ReadMem(cnt, 4)
		if err != nil {
			t.Fatal(err)
		}
		if int(mem[3]) != hit {
			t.Fatalf("hit %d: count=%d", hit, mem[3])
		}
	}
	// Lift the breakpoint and run to completion: exit code = 3.
	if err := d.ClearBreak(fn); err != nil {
		t.Fatal(err)
	}
	d.Close()
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, code := kernel.WIfExited(status); code != 3 {
		t.Fatalf("exit code = %d", code)
	}
}

func TestDebuggerSingleStep(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("stepme", `
	movi r1, 1
	movi r2, 2
	movi r3, 3
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	d, err := tools.NewDebugger(s, p, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st, err := d.Stop()
	if err != nil {
		t.Fatal(err)
	}
	pc := st.Reg.PC
	for i := 1; i <= 3; i++ {
		st, err = d.StepInstr()
		if err != nil {
			t.Fatal(err)
		}
		if st.Reg.PC != pc+uint32(4*i) {
			t.Fatalf("step %d: pc=%#x", i, st.Reg.PC)
		}
	}
	regs, err := d.Regs()
	if err != nil {
		t.Fatal(err)
	}
	if regs.R[1] != 1 || regs.R[2] != 2 || regs.R[3] != 3 {
		t.Fatalf("regs after 3 steps: %+v", regs)
	}
}

func TestDebuggerModifiesVariables(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("patchme", `
	la r3, value
	ld r1, [r3]
	movi r0, SYS_exit
	syscall
.data
value:	.word 7
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	d, err := tools.NewDebugger(s, p, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	addr, _ := d.Lookup("value")
	if err := d.WriteMem(addr, []byte{0, 0, 0, 42}); err != nil {
		t.Fatal(err)
	}
	d.Close()
	status, _ := s.WaitExit(p)
	if _, code := kernel.WIfExited(status); code != 42 {
		t.Fatalf("exit code = %d, want the patched 42", code)
	}
}

func TestPtraceDebuggerBaseline(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("ptme", `
.entry main
fn:	addi r4, 1
	ret
main:	movi r5, 2
loop:	call fn
	addi r5, -1
	cmpi r5, 0
	jne loop
	movi r0, SYS_exit
	movi r1, 0
	syscall
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	c := s.K.PtraceAttach(p)
	d := tools.NewPtraceDebugger(c)
	syms, _ := p.ImageSyms()
	var fn uint32
	for _, sym := range syms {
		if sym.Name == "fn" {
			fn = sym.Value
		}
	}
	// ptrace needs the child stopped before it can operate: nudge it.
	s.K.PostSignal(p, types.SIGTRAP)
	if err := d.WaitTrap(2_000_000); err != nil {
		t.Fatal(err)
	}
	if err := d.SetBreak(fn); err != nil {
		t.Fatal(err)
	}
	for hit := 0; hit < 2; hit++ {
		if err := d.Cont(2_000_000); err != nil {
			t.Fatalf("hit %d: %v", hit, err)
		}
		regs, err := d.Regs()
		if err != nil {
			t.Fatal(err)
		}
		if regs.PC != fn {
			t.Fatalf("hit %d: pc=%#x", hit, regs.PC)
		}
	}
	if err := d.ClearBreak(fn); err != nil {
		t.Fatal(err)
	}
	if err := c.Cont(0); err != nil {
		t.Fatal(err)
	}
	status, err := s.WaitExit(p)
	if err != nil {
		t.Fatal(err)
	}
	if ok, code := kernel.WIfExited(status); !ok || code != 0 {
		t.Fatalf("status = %#x", status)
	}
	if d.Ops() == 0 {
		t.Fatal("ops counter should count ptrace calls")
	}
}

func TestPtraceWordAtATimeCosts(t *testing.T) {
	// The efficiency claim in miniature: reading 4KiB costs ~1024 ptrace
	// ops but one /proc read.
	s := repro.NewSystem()
	p, err := s.SpawnProg("bulk", `
loop:	jmp loop
.data
blob:	.space 4096
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	c := s.K.PtraceAttach(p)
	d := tools.NewPtraceDebugger(c)
	s.K.PostSignal(p, types.SIGTRAP)
	if err := d.WaitTrap(2_000_000); err != nil {
		t.Fatal(err)
	}
	syms, _ := p.ImageSyms()
	var blob uint32
	for _, sym := range syms {
		if sym.Name == "blob" {
			blob = sym.Value
		}
	}
	before := d.Ops()
	if _, err := d.ReadMem(blob, 4096); err != nil {
		t.Fatal(err)
	}
	ptraceOps := d.Ops() - before

	dbg, err := tools.NewDebugger(s, p, types.RootCred())
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	opsBefore := dbg.Ops
	if _, err := dbg.ReadMem(blob, 4096); err != nil {
		t.Fatal(err)
	}
	procOps := dbg.Ops - opsBefore

	if ptraceOps < 1024 {
		t.Fatalf("ptrace ops = %d, want ~1024", ptraceOps)
	}
	if procOps != 1 {
		t.Fatalf("proc ops = %d, want 1", procOps)
	}
}

func TestTrussSummaryMode(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("summary", `
	movi r5, 5
loop:	movi r0, SYS_getpid
	syscall
	addi r5, -1
	cmpi r5, 0
	jne loop
	movi r0, SYS_open
	la r1, nopath
	movi r2, 1
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
.data
nopath:	.asciz "/missing"
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	tr := tools.NewTruss(s, &out, types.RootCred())
	tr.Summary = true
	if err := tr.TraceToExit(p, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("summary mode should print nothing during the run:\n%s", out.String())
	}
	if tr.Counts(kernel.SysGetpid) != 5 {
		t.Fatalf("getpid count = %d", tr.Counts(kernel.SysGetpid))
	}
	tr.WriteSummary(&out)
	text := out.String()
	if !strings.Contains(text, "getpid") || !strings.Contains(text, "5") {
		t.Fatalf("summary table:\n%s", text)
	}
	if !strings.Contains(text, "open") {
		t.Fatalf("open missing from summary:\n%s", text)
	}
}

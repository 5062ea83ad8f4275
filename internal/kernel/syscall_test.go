package kernel_test

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/types"
	"repro/internal/vfs"
)

func TestUmaskAppliesToCreat(t *testing.T) {
	f := boot(t)
	p := f.spawn("um", `
	movi r0, SYS_umask
	movi r1, 0x3F		; 077
	syscall
	movi r0, SYS_creat
	la r1, path
	movi r2, 0x1B6		; 0666
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
.data
path:	.asciz "/tmp/masked"
`, user())
	f.runToExit(p)
	cl := &vfs.Client{NS: f.K.NS, Cred: types.RootCred()}
	attr, err := cl.Stat("/tmp/masked")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Mode != 0o600 {
		t.Fatalf("mode = %o, want 600 (0666 &^ 077)", attr.Mode)
	}
}

func TestDupSharesOffset(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/tmp/seq", []byte("ABCDEF"), 0o666, 0, 0)
	p := f.spawn("dup", `
	movi r0, SYS_open
	la r1, path
	movi r2, 1
	syscall
	mov r6, r0
	movi r0, SYS_dup
	mov r1, r6
	syscall
	mov r7, r0		; dup'd fd
	movi r0, SYS_read	; read 2 via original
	mov r1, r6
	la r2, buf
	movi r3, 2
	syscall
	movi r0, SYS_read	; read 1 via the dup: shares the offset
	mov r1, r7
	la r2, buf
	movi r3, 1
	syscall
	la r3, buf
	ldb r1, [r3]		; should be 'C'
	movi r0, SYS_exit
	syscall
.data
path:	.asciz "/tmp/seq"
buf:	.space 4
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 'C' {
		t.Fatalf("read %c, want C: dup must share the file offset", code)
	}
}

func TestEMFILE(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/tmp/x", []byte("x"), 0o666, 0, 0)
	// Open the same file 100 times without closing: the per-process
	// descriptor limit (64) makes the tail of them fail with EMFILE.
	p := f.spawn("manyfds", `
	movi r5, 0
loop:	movi r0, SYS_open
	la r1, path
	movi r2, 1
	syscall
	mov r6, r0		; result of the last open
	addi r5, 1
	cmpi r5, 100
	jne loop
	mov r1, r6
	movi r0, SYS_exit
	syscall
.data
path:	.asciz "/tmp/x"
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != int(kernel.EMFILE) {
		t.Fatalf("last open result = %d, want EMFILE", code)
	}
}

func TestAlarmRearmsAndCancels(t *testing.T) {
	f := boot(t)
	p := f.spawn("alarms", `
	movi r0, SYS_alarm
	movi r1, 1000
	syscall			; arm
	movi r0, SYS_alarm
	movi r1, 2000
	syscall			; re-arm: returns remaining (~1000)
	mov r6, r0
	movi r0, SYS_alarm
	movi r1, 0
	syscall			; cancel: returns remaining (~2000)
	mov r7, r0
	; exit with 1 if both remainders look sane
	cmpi r6, 900
	jlt bad
	cmpi r7, 1900
	jlt bad
	movi r1, 1
	movi r0, SYS_exit
	syscall
bad:	movi r1, 0
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 1 {
		t.Fatal("alarm remainders wrong")
	}
	// Cancelled alarm never fires.
	if p.SigPend.Has(types.SIGALRM) {
		t.Fatal("cancelled alarm fired")
	}
}

func TestKillProcessGroup(t *testing.T) {
	f := boot(t)
	// Parent forks two children (same pgrp), then kill(0, SIGKILL) nukes
	// the whole group including itself.
	p := f.spawn("groupkill", `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	je child
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	je child
	movi r5, 100
spin:	addi r5, -1
	cmpi r5, 0
	jne spin
	movi r0, SYS_kill
	movi r1, 0		; pid 0: my process group
	movi r2, 9		; SIGKILL
	syscall
child:	jmp child
`, user())
	err := f.K.RunUntil(func() bool {
		for _, q := range f.K.Procs() {
			if q.Comm == "groupkill" && q.Alive() {
				return false
			}
		}
		return true
	}, 2_000_000)
	if err != nil {
		t.Fatalf("a group member survived: %v", err)
	}
	_ = p
}

func TestSetpgrpSeparatesGroups(t *testing.T) {
	f := boot(t)
	p := f.spawn("pg", `
	movi r0, SYS_setpgrp
	syscall
	mov r6, r0		; new pgrp == pid
	movi r0, SYS_getpid
	syscall
	sub r6, r0		; 0 if pgrp == pid
	mov r1, r6
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 0 {
		t.Fatal("setpgrp should set pgrp = pid")
	}
}

func TestLseekWhence(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/tmp/lk", []byte("0123456789"), 0o666, 0, 0)
	p := f.spawn("lk", `
	movi r0, SYS_open
	la r1, path
	movi r2, 1
	syscall
	mov r6, r0
	movi r0, SYS_lseek	; SEEK_END -3 -> offset 7
	mov r1, r6
	li r2, -3
	movi r3, 2
	syscall
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall
	la r3, buf
	ldb r1, [r3]		; '7'
	movi r0, SYS_exit
	syscall
.data
path:	.asciz "/tmp/lk"
buf:	.space 4
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != '7' {
		t.Fatalf("read %c, want 7", code)
	}
}

// lseek accepts any offset and leaves each file system to judge it at the
// read: a regular file read at a negative offset fails with EINVAL instead
// of indexing the file before its first byte.
func TestReadNegativeOffsetEINVAL(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/tmp/neg", []byte("0123456789"), 0o666, 0, 0)
	p := f.spawn("neg", `
	movi r0, SYS_open
	la r1, path
	movi r2, 1
	syscall
	mov r6, r0
	movi r0, SYS_lseek	; SEEK_SET -5
	mov r1, r6
	li r2, -5
	movi r3, 0
	syscall
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall
	mov r1, r0		; the errno
	movi r0, SYS_exit
	syscall
.data
path:	.asciz "/tmp/neg"
buf:	.space 4
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != int(kernel.EINVAL) {
		t.Fatalf("exit %d, want EINVAL (%d)", code, int(kernel.EINVAL))
	}
}

func TestUnlinkAndAccess(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/tmp/gone", []byte("x"), 0o666, 0, 0)
	p := f.spawn("ua", `
	movi r0, SYS_access
	la r1, path
	movi r2, 4		; R_OK
	syscall
	mov r6, r0		; 0
	movi r0, SYS_unlink
	la r1, path
	syscall
	movi r0, SYS_access
	la r1, path
	movi r2, 4
	syscall			; now ENOENT
	mov r1, r0
	movi r0, SYS_exit
	syscall
.data
path:	.asciz "/tmp/gone"
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != int(kernel.ENOENT) {
		t.Fatalf("second access = %d, want ENOENT", code)
	}
}

func TestChdirAffectsRelativePaths(t *testing.T) {
	f := boot(t)
	f.FS.WriteFile("/tmp/sub/data", []byte("K"), 0o666, 0, 0)
	p := f.spawn("cd", `
	movi r0, SYS_chdir
	la r1, dir
	syscall
	movi r0, SYS_open
	la r1, rel		; relative path
	movi r2, 1
	syscall
	mov r6, r0
	movi r0, SYS_read
	mov r1, r6
	la r2, buf
	movi r3, 1
	syscall
	la r3, buf
	ldb r1, [r3]
	movi r0, SYS_exit
	syscall
.data
dir:	.asciz "/tmp/sub"
rel:	.asciz "data"
buf:	.space 4
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 'K' {
		t.Fatalf("code = %d", code)
	}
}

func TestVforkChildExecsReleasesParent(t *testing.T) {
	f := boot(t)
	f.install("/bin/quick", exit42, 0o755, 0, 0)
	// vfork; the child execs (the classic pattern); the parent must not
	// resume until the exec happens, and its own memory must be intact.
	p := f.spawn("vfexec", `
	la r3, marker
	movi r4, 7
	st r4, [r3]
	movi r0, SYS_vfork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_exec	; child borrows the AS until here
	la r1, path
	syscall
	movi r0, SYS_exit	; exec failed
	movi r1, 99
	syscall
parent:
	movi r0, SYS_wait
	movi r1, 0
	syscall
	shr r1, 8		; child's code (42)
	la r3, marker
	ld r4, [r3]
	cmpi r4, 7		; parent memory intact?
	jne bad
	movi r0, SYS_exit
	syscall
bad:	movi r1, 0
	movi r0, SYS_exit
	syscall
.data
marker:	.word 0
path:	.asciz "/bin/quick"
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 42 {
		t.Fatalf("code = %d, want child's 42 with parent memory intact", code)
	}
}

func TestCoreDumpWritten(t *testing.T) {
	f := boot(t)
	p := f.spawn("dumper", `
	movi r0, SYS_chdir	; cores go to the cwd, which must be writable
	la r1, tmp
	syscall
	la r3, tag
	movi r4, 0x5A
	stb r4, [r3]
	movi r5, 1
	movi r6, 0
	div r5, r6		; FLTIZDIV -> SIGFPE -> core
.data
tmp:	.asciz "/tmp"
tag:	.byte 0
`, user())
	status := f.runToExit(p)
	if ok, sig, core := kernel.WIfSignaled(status); !ok || sig != types.SIGFPE || !core {
		t.Fatalf("status = %#x", status)
	}
	cl := &vfs.Client{NS: f.K.NS, Cred: types.RootCred()}
	data, err := cl.ReadFile("/tmp/core." + itoa(p.Pid))
	if err != nil {
		t.Fatalf("no core file: %v", err)
	}
	img, err := kernel.ParseCore(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Pid != p.Pid || img.Signal != types.SIGFPE {
		t.Fatalf("core header: %+v", img)
	}
	// The PC points at the faulting div.
	pc := img.Regs[8]
	if pc < 0x80000000 {
		t.Fatalf("core pc = %#x", pc)
	}
	// The memory image contains the tag the program wrote.
	syms, _ := p.ImageSyms()
	var tag uint32
	for _, s := range syms {
		if s.Name == "tag" {
			tag = s.Value
		}
	}
	if b, ok := img.At(tag); !ok || b != 0x5A {
		t.Fatalf("core memory at tag = %#x, %v", b, ok)
	}
	if _, ok := img.At(0x100); ok {
		t.Fatal("unmapped address should not be in the core")
	}
}

func TestParseCoreErrors(t *testing.T) {
	if _, err := kernel.ParseCore([]byte("NOPE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := kernel.ParseCore([]byte{'C', 'O', 'R', 'E', 0}); err == nil {
		t.Fatal("truncated core accepted")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Property: the wait-status encodings are disjoint and invertible.
func TestQuickWaitStatusEncodings(t *testing.T) {
	fn := func(code uint8, rawSig uint8, core bool) bool {
		sig := int(rawSig%31) + 1
		// Exited.
		if ok, c := kernel.WIfExited(int(code) << 8); !ok || c != int(code) {
			return false
		}
		if ok, _, _ := kernel.WIfSignaled(int(code) << 8); ok {
			return false
		}
		// Stopped.
		st := sig<<8 | 0x7F
		if ok, s := kernel.WIfStopped(st); !ok || s != sig {
			return false
		}
		if ok, _ := kernel.WIfExited(st); ok {
			return false
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSyscallNameTables(t *testing.T) {
	if kernel.SyscallName(kernel.SysRead) != "read" {
		t.Fatal("name read")
	}
	if kernel.SyscallName(499) != "sys#499" {
		t.Fatalf("name 499 = %q", kernel.SyscallName(499))
	}
	if kernel.SyscallNumber("write") != kernel.SysWrite {
		t.Fatal("number write")
	}
	if kernel.SyscallNumber("bogus") != 0 {
		t.Fatal("number bogus")
	}
	if kernel.SyscallArity(kernel.SysRead) != 3 {
		t.Fatal("arity read")
	}
	pre := kernel.Predefs()
	if pre["SYS_exit"] != kernel.SysExit || pre["SIGKILL"] != types.SIGKILL {
		t.Fatal("predefs")
	}
}

func TestErrnoStrings(t *testing.T) {
	if kernel.ENOENT.String() != "ENOENT" || kernel.Errno(0).String() != "OK" {
		t.Fatal("errno strings")
	}
	if kernel.Errno(77).String() != "E77" {
		t.Fatalf("unknown errno = %q", kernel.Errno(77).String())
	}
	if kernel.EINVAL.Error() != "EINVAL" {
		t.Fatal("Error()")
	}
}

func TestNiceBounds(t *testing.T) {
	f := boot(t)
	p := f.spawn("nice", `
	movi r0, SYS_nice
	movi r1, 100		; clamped to 19
	syscall
	mov r1, r0		; nice+20 = 39
	movi r0, SYS_exit
	syscall
`, user())
	status := f.runToExit(p)
	if _, code := kernel.WIfExited(status); code != 39 {
		t.Fatalf("nice result = %d, want 39", code)
	}
	// Negative increments need privilege.
	q := f.spawn("mean", `
	movi r0, SYS_nice
	li r1, -5
	syscall
	mov r1, r0		; EPERM for a plain user
	movi r0, SYS_exit
	syscall
`, user())
	status = f.runToExit(q)
	if _, code := kernel.WIfExited(status); code != int(kernel.EPERM) {
		t.Fatalf("negative nice by user = %d, want EPERM", code)
	}
}

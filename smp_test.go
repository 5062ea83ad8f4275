package repro_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/ktrace"
	"repro/internal/types"
)

// TestSMPForkWaitSignal boots the SMP scheduler and runs several process
// families concurrently: each forks twice, one child sleeps and exits, one
// dies on a division fault, and the parent reaps both. This crosses every
// big-lock path at once — fork, wait, sleep/wake, fault-to-signal delivery,
// exit and reaping — with families spread across four CPUs.
func TestSMPForkWaitSignal(t *testing.T) {
	s := repro.NewSystem(repro.Options{NCPU: 4})
	defer s.Close()
	const family = `
	movi r0, SYS_fork
	syscall
	cmpi r0, 0
	jne parent
	movi r0, SYS_sleep	; first child naps then exits
	movi r1, 20
	syscall
	movi r0, SYS_exit
	movi r1, 0
	syscall
parent:
	movi r0, SYS_fork	; second child crashes
	syscall
	cmpi r0, 0
	jne reap
	movi r1, 1
	movi r2, 0
	div r1, r2
reap:
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_wait
	movi r1, 0
	syscall
	movi r0, SYS_exit
	movi r1, 7
	syscall
`
	var parents []*kernel.Proc
	for i := 0; i < 6; i++ {
		p, err := s.SpawnProg(fmt.Sprintf("fam%d", i), family, types.UserCred(100, 10))
		if err != nil {
			t.Fatal(err)
		}
		parents = append(parents, p)
	}
	for _, p := range parents {
		status, err := s.WaitExit(p)
		if err != nil {
			t.Fatalf("pid %d: %v", p.Pid, err)
		}
		if ok, code := kernel.WIfExited(status); !ok || code != 7 {
			t.Fatalf("pid %d: status %#x, want clean exit 7", p.Pid, status)
		}
	}
	// Everything reaped: only init and the system processes remain alive.
	for _, p := range s.K.Procs() {
		if p.Alive() && !p.System && p.Pid != 1 {
			t.Fatalf("pid %d (%s) still alive after the storm", p.Pid, p.Comm)
		}
	}
}

// TestSMPBrkShootdown drives the remap path under SMP: a fleet of processes
// that repeatedly grow and shrink their break while their siblings run user
// code on other CPUs. Every brk bumps the address-space generation and runs
// the cross-CPU shootdown barrier; the programs verify their own memory
// after each move, so a stale translation surviving a shootdown shows up as
// a wrong value and a non-zero exit.
func TestSMPBrkShootdown(t *testing.T) {
	s := repro.NewSystem(repro.Options{NCPU: 4})
	defer s.Close()
	const grower = `
	la r6, heap
	movi r7, 30		; iterations
loop:	movi r0, SYS_brk
	mov r1, r6
	addi r1, 8192
	syscall			; grow the break two pages past heap
	mov r2, r6
	addi r2, 4096		; a page inside the growth
	movi r3, 99
	st r3, [r2]		; write through the fresh mapping
	ld r4, [r2]
	sub r4, r3
	cmpi r4, 0
	jne bad			; value did not round-trip
	movi r0, SYS_brk
	mov r1, r6
	syscall			; shrink back: pages dropped, generation bumped
	movi r5, 1
	sub r7, r5
	cmpi r7, 0
	jgt loop
	movi r0, SYS_exit
	movi r1, 0
	syscall
bad:	movi r0, SYS_exit
	movi r1, 1
	syscall
.bss
heap:	.space 8
`
	var procs []*kernel.Proc
	for i := 0; i < 5; i++ {
		p, err := s.SpawnProg(fmt.Sprintf("grow%d", i), grower, types.UserCred(100, 10))
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	for _, p := range procs {
		status, err := s.WaitExit(p)
		if err != nil {
			t.Fatalf("pid %d: %v", p.Pid, err)
		}
		if ok, code := kernel.WIfExited(status); !ok || code != 0 {
			t.Fatalf("pid %d: status %#x — stale translation after shootdown", p.Pid, status)
		}
	}
}

// oneProcProg runs, in one process with no fork, a loop of a lock-free
// system call (getpid), two process-class ones (time, umask), then a
// global-class timed sleep, then dies on a division fault.
const oneProcProg = `
	movi r5, 40
loop:
	movi r0, SYS_getpid
	syscall
	movi r0, SYS_time
	syscall
	movi r0, SYS_umask
	movi r1, 18
	syscall
	addi r5, -1
	cmpi r5, 0
	jne loop
	movi r0, SYS_sleep
	movi r1, 30
	syscall
	movi r1, 1
	movi r2, 0
	div r1, r2
`

// TestOneProcessSameStreamAnyNCPU pins that the deterministic scheduler and
// the SMP scheduler run one phase machine: a single process, which has no
// scheduling order to differ in, must leave a byte-identical kernel-wide
// trace at NCPU=1 and NCPU=2 — every event at the same simulated time,
// across lock-free, process-class and global-class system calls, a timed
// wakeup and a fault.
func TestOneProcessSameStreamAnyNCPU(t *testing.T) {
	run := func(ncpu int) []byte {
		s := repro.NewSystem(repro.Options{NCPU: ncpu})
		defer s.Close()
		// Let init reach its pause first, so the traced process is the
		// only one that runs: nothing else can add ticks to the clock.
		if n := s.Run(100); n == 100 {
			t.Fatalf("NCPU=%d: system never went idle after boot", ncpu)
		}
		s.K.EnableKTraceAll(1 << 16)
		p, err := s.SpawnProg("oneproc", oneProcProg, types.UserCred(100, 10))
		if err != nil {
			t.Fatal(err)
		}
		status, err := s.WaitExit(p)
		if err != nil {
			t.Fatalf("NCPU=%d: %v", ncpu, err)
		}
		if ok, sig, _ := kernel.WIfSignaled(status); !ok || sig != types.SIGFPE {
			t.Fatalf("NCPU=%d: status %#x, want death by SIGFPE", ncpu, status)
		}
		return readProcFile(t, s, "/procx/trace")
	}
	det, smp := run(1), run(2)
	if len(det) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(det, smp) {
		de, err := ktrace.Decode(det)
		if err != nil {
			t.Fatal(err)
		}
		se, err := ktrace.Decode(smp)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(de) && i < len(se); i++ {
			if de[i] != se[i] {
				t.Fatalf("event %d differs:\nNCPU=1: %+v\nNCPU=2: %+v", i, de[i], se[i])
			}
		}
		t.Fatalf("trace lengths differ: %d events at NCPU=1, %d at NCPU=2", len(de), len(se))
	}
}

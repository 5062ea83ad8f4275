package procfs2_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs2"
	"repro/internal/types"
	"repro/internal/vcpu"
	"repro/internal/vfs"
)

const spin = `
loop:	jmp loop
`

func dir(pid int) string { return fmt.Sprintf("/procx/%05d", pid) }

func openf(t *testing.T, s *repro.System, path string, flags int) *vfs.File {
	t.Helper()
	f, err := s.Client(types.RootCred()).Open(path, flags)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return f
}

func readStatus(t *testing.T, f *vfs.File) kernel.ProcStatus {
	t.Helper()
	buf := make([]byte, 4096)
	n, err := f.Pread(buf, 0)
	if err != nil {
		t.Fatalf("read status: %v", err)
	}
	st, err := procfs2.DecodeStatus(buf[:n])
	if err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func TestHierarchyLayout(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("tree", spin, types.UserCred(100, 10))
	s.Run(2)
	cl := s.Client(types.RootCred())

	ents, err := cl.ReadDir("/procx")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ents {
		if e.Name == fmt.Sprintf("%05d", p.Pid) {
			found = true
			if e.Attr.Type != vfs.VDIR {
				t.Fatal("process entries are directories in the restructured interface")
			}
		}
	}
	if !found {
		t.Fatal("process directory missing")
	}
	sub, err := cl.ReadDir(dir(p.Pid))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"status": true, "psinfo": true, "ctl": true,
		"as": true, "map": true, "cred": true, "usage": true, "lwp": true}
	for _, e := range sub {
		delete(want, e.Name)
	}
	if len(want) != 0 {
		t.Fatalf("missing entries: %v", want)
	}
	// The LWP hierarchy: thread-ids as sub-directories.
	lwps, err := cl.ReadDir(dir(p.Pid) + "/lwp")
	if err != nil {
		t.Fatal(err)
	}
	if len(lwps) != 1 || lwps[0].Name != "1" {
		t.Fatalf("lwp dir = %+v", lwps)
	}
	lfiles, err := cl.ReadDir(dir(p.Pid) + "/lwp/1")
	if err != nil {
		t.Fatal(err)
	}
	if len(lfiles) != 2 {
		t.Fatalf("lwp files = %+v", lfiles)
	}
}

func TestStatusFileRead(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("st", spin, types.UserCred(100, 10))
	s.Run(3)
	f := openf(t, s, dir(p.Pid)+"/status", vfs.ORead)
	defer f.Close()
	st := readStatus(t, f)
	if st.Pid != p.Pid || st.PPid != 1 || st.NLWP != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.VSize != p.VirtSize() {
		t.Fatalf("vsize = %d", st.VSize)
	}
}

func TestCtlStopRunAndStatus(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("cs", spin, types.UserCred(100, 10))
	s.Run(2)
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	defer ctl.Close()
	status := openf(t, s, dir(p.Pid)+"/status", vfs.ORead)
	defer status.Close()

	// PCSTOP via a structured message write.
	if _, err := ctl.Write((&procfs2.CtlBuf{}).Stop().Bytes()); err != nil {
		t.Fatal(err)
	}
	st := readStatus(t, status)
	if st.Flags&kernel.PRIstop == 0 || st.Why != kernel.WhyRequested {
		t.Fatalf("not stopped: %+v", st)
	}
	// PCRUN.
	ctl.Offset = 0
	if _, err := ctl.Write((&procfs2.CtlBuf{}).Run(0, 0).Bytes()); err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if p.Rep().Stopped() {
		t.Fatal("did not resume")
	}
}

// The restructuring's selling point: several control operations combined in
// a single write.
func TestBatchedControlOperations(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("batch", `
loop:	movi r0, SYS_getpid
	syscall
	jmp loop
`, types.UserCred(100, 10))
	s.Run(2)
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	defer ctl.Close()

	var sigs types.SigSet
	sigs.Add(types.SIGUSR1)
	var flts types.FltSet
	flts.Add(types.FLTBPT)
	var entries types.SysSet
	entries.Add(kernel.SysGetpid)

	// One write: trace sets + nice + stop directive + wait.
	batch := (&procfs2.CtlBuf{}).
		STrace(sigs).
		SFault(flts).
		SEntry(entries).
		Nice(3).
		WStop().
		Bytes()
	n, err := ctl.Write(batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(batch) {
		t.Fatalf("consumed %d of %d", n, len(batch))
	}
	if !p.Trace.Sigs.Has(types.SIGUSR1) || !p.Trace.Faults.Has(types.FLTBPT) ||
		!p.Trace.Entry.Has(kernel.SysGetpid) || p.Nice != 3 {
		t.Fatal("batched settings not applied")
	}
	if l := p.EventStoppedLWP(); l == nil {
		t.Fatal("WSTOP did not wait for the stop")
	} else if why, what := l.Why(); why != kernel.WhySysEntry || what != kernel.SysGetpid {
		t.Fatalf("why=%v what=%d", why, what)
	}
	// Clean up: clear traces and run in one more batched write.
	ctl.Offset = 0
	cleanup := (&procfs2.CtlBuf{}).
		STrace(types.SigSet{}).
		SFault(types.FltSet{}).
		SEntry(types.SysSet{}).
		Run(0, 0).
		Bytes()
	if _, err := ctl.Write(cleanup); err != nil {
		t.Fatal(err)
	}
}

func TestPartialBatchOnError(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("partial", spin, types.UserCred(100, 10))
	s.Run(2)
	ctl := openf(t, s, dir(p.Pid)+"/ctl", vfs.OWrite)
	defer ctl.Close()
	// Nice(2) then a PCRUN that fails (not stopped): partial write.
	batch := (&procfs2.CtlBuf{}).Nice(2).Run(0, 0).Bytes()
	n, err := ctl.Write(batch)
	if err != nil {
		t.Fatalf("partial batch should not error: %v", err)
	}
	if n >= len(batch) {
		t.Fatal("failing message should not be consumed")
	}
	if p.Nice != 2 {
		t.Fatal("leading messages should be applied")
	}
	// A batch whose FIRST message fails returns the error.
	ctl.Offset = 0
	if _, err := ctl.Write((&procfs2.CtlBuf{}).Run(0, 0).Bytes()); err == nil {
		t.Fatal("lone failing message should error")
	}
	// A truncated message errors.
	ctl.Offset = 0
	if _, err := ctl.Write([]byte{0, 0, 0, procfs2.PCRUN, 0, 0}); err == nil {
		t.Fatal("truncated message should error")
	}
}

func TestASFileIO(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("asio", `
loop:	jmp loop
.data
blob:	.ascii "abcdef"
`, types.UserCred(100, 10))
	s.Run(2)
	as := openf(t, s, dir(p.Pid)+"/as", vfs.ORead|vfs.OWrite)
	defer as.Close()
	syms, _ := p.ImageSyms()
	var blob uint32
	for _, sym := range syms {
		if sym.Name == "blob" {
			blob = sym.Value
		}
	}
	buf := make([]byte, 6)
	if _, err := as.Pread(buf, int64(blob)); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abcdef" {
		t.Fatalf("read %q", buf)
	}
	if _, err := as.Pwrite([]byte("ZZ"), int64(blob)); err != nil {
		t.Fatal(err)
	}
	as.Pread(buf, int64(blob))
	if string(buf) != "ZZcdef" {
		t.Fatalf("after write: %q", buf)
	}
	if _, err := as.Pread(buf, 0x10); err == nil {
		t.Fatal("unmapped as read should fail")
	}
}

func TestMapCredUsageFiles(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("files", spin, types.UserCred(100, 10))
	s.Run(3)
	cl := s.Client(types.RootCred())

	mf, err := cl.Open(dir(p.Pid)+"/map", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65536)
	n, _ := mf.Pread(buf, 0)
	entries, err := procfs2.DecodeMap(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("map entries = %d", len(entries))
	}
	if entries[len(entries)-1].Vaddr != 0x80000000 {
		// text should be present somewhere
		found := false
		for _, e := range entries {
			if e.Vaddr == 0x80000000 {
				found = true
			}
		}
		if !found {
			t.Fatal("no text mapping in map file")
		}
	}
	mf.Close()

	cf, err := cl.Open(dir(p.Pid)+"/cred", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = cf.Pread(buf, 0)
	cred, err := procfs2.DecodeCred(buf[:n])
	if err != nil || cred.RUID != 100 || cred.RGID != 10 {
		t.Fatalf("cred %+v err %v", cred, err)
	}
	cf.Close()

	uf, err := cl.Open(dir(p.Pid)+"/usage", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = uf.Pread(buf, 0)
	usage, err := procfs2.DecodeUsage(buf[:n])
	if err != nil || usage.UserTicks == 0 {
		t.Fatalf("usage %+v err %v", usage, err)
	}
	uf.Close()

	pf, err := cl.Open(dir(p.Pid)+"/psinfo", vfs.ORead)
	if err != nil {
		t.Fatal(err)
	}
	n, _ = pf.Pread(buf, 0)
	info, err := procfs2.DecodePSInfo(buf[:n])
	if err != nil || info.Comm != "files" || info.UID != 100 {
		t.Fatalf("psinfo %+v err %v", info, err)
	}
	pf.Close()
}

// C12: per-LWP status and control through the hierarchy.
func TestLWPHierarchyControl(t *testing.T) {
	s := repro.NewSystem()
	p, err := s.SpawnProg("mt", `
	movi r0, SYS_mmap	; map a stack for the second lwp
	movi r1, 0
	movi r2, 0
	movhi r2, 1
	movi r3, 3
	movi r4, 0
	syscall
	mov r6, r0
	movi r2, 0
	movhi r2, 1
	add r6, r2
	movi r0, SYS_lwp_create
	la r1, thread
	mov r2, r6
	syscall
main:	jmp main
thread:	jmp thread
`, types.UserCred(100, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(func() bool { return len(p.LiveLWPs()) == 2 }, 200000); err != nil {
		t.Fatal(err)
	}
	cl := s.Client(types.RootCred())
	lwps, err := cl.ReadDir(dir(p.Pid) + "/lwp")
	if err != nil {
		t.Fatal(err)
	}
	if len(lwps) != 2 {
		t.Fatalf("lwp entries = %d", len(lwps))
	}
	// Stop only LWP 2 via its own lwpctl.
	lctl := openf(t, s, dir(p.Pid)+"/lwp/2/lwpctl", vfs.OWrite)
	defer lctl.Close()
	if _, err := lctl.Write((&procfs2.CtlBuf{}).Stop().Bytes()); err != nil {
		t.Fatal(err)
	}
	l2 := p.LWP(2)
	if !l2.StoppedOnEvent() {
		t.Fatal("lwp 2 not stopped")
	}
	if p.LWP(1).Stopped() {
		t.Fatal("lwp 1 should still run")
	}
	// Its lwpstatus file reports the stop.
	lst := openf(t, s, dir(p.Pid)+"/lwp/2/lwpstatus", vfs.ORead)
	defer lst.Close()
	st := readStatus(t, lst)
	if st.LWPID != 2 || st.Flags&kernel.PRIstop == 0 {
		t.Fatalf("lwpstatus = %+v", st)
	}
	// Resume it through its lwpctl.
	lctl.Offset = 0
	if _, err := lctl.Write((&procfs2.CtlBuf{}).Run(0, 0).Bytes()); err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if l2.Stopped() {
		t.Fatal("lwp 2 did not resume")
	}
}

func TestCtlIsWriteOnlyAndStatusReadOnly(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("perm", spin, types.UserCred(100, 10))
	s.Run(2)
	cl := s.Client(types.RootCred())
	if _, err := cl.Open(dir(p.Pid)+"/ctl", vfs.ORead); err == nil {
		t.Fatal("ctl should be write-only")
	}
	if _, err := cl.Open(dir(p.Pid)+"/status", vfs.OWrite); err == nil {
		t.Fatal("status should be read-only")
	}
	// Security: another user cannot open.
	other := s.Client(types.UserCred(200, 20))
	if _, err := other.Open(dir(p.Pid)+"/status", vfs.ORead); err != vfs.ErrPerm {
		t.Fatalf("foreign open: %v", err)
	}
}

func TestSetIDInvalidationAppliesToCtl(t *testing.T) {
	s := repro.NewSystem()
	if err := s.Install("/bin/su2", spin, 0o4755, 0, 0); err != nil {
		t.Fatal(err)
	}
	user := types.UserCred(100, 10)
	p, err := s.SpawnProg("esu", `
	movi r0, SYS_exec
	la r1, path
	syscall
loop:	jmp loop
.data
path:	.asciz "/bin/su2"
`, user)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := s.Client(user).Open(dir(p.Pid)+"/ctl", vfs.OWrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(func() bool { return p.SugidDirty }, 200000); err != nil {
		t.Fatal(err)
	}
	ctl.Offset = 0
	if _, err := ctl.Write((&procfs2.CtlBuf{}).DStop().Bytes()); err != vfs.ErrStale {
		t.Fatalf("stale ctl write: %v", err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal("close of stale fd must succeed")
	}
}

// Wire-format property tests.
func TestQuickStatusRoundTrip(t *testing.T) {
	f := func(pid, ppid int32, cursig uint8, pc, sp uint32, pendLo, pendHi uint64) bool {
		st := kernel.ProcStatus{
			Pid: int(pid), PPid: int(ppid), CurSig: int(cursig),
			SigPend: types.SigSet{pendLo, pendHi},
			Reg:     vcpu.Regs{PC: pc, SP: sp},
		}
		got, err := procfs2.DecodeStatus(procfs2.EncodeStatus(st))
		return err == nil && got == st
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPSInfoRoundTrip(t *testing.T) {
	f := func(pid int32, state uint8, comm, args string, vsz int64) bool {
		if vsz < 0 {
			vsz = -vsz
		}
		info := kernel.PSInfo{Pid: int(pid), State: state, Comm: comm, Args: args, VSize: vsz}
		got, err := procfs2.DecodePSInfo(procfs2.EncodePSInfo(info))
		return err == nil && got == info
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := procfs2.EncodeStatus(kernel.ProcStatus{Pid: 1})
	if _, err := procfs2.DecodeStatus(full[:10]); err == nil {
		t.Fatal("truncated status should error")
	}
	if _, err := procfs2.DecodeMap([]byte{0, 0}); err == nil {
		t.Fatal("truncated map should error")
	}
	if _, err := procfs2.DecodeUsage([]byte{1}); err == nil {
		t.Fatal("truncated usage should error")
	}
}

// Every snapshot file refuses a negative offset: the offset is the
// reader's to choose (lseek, a remote client) and must never index before
// the start of the snapshot.
func TestSnapshotReadNegativeOffset(t *testing.T) {
	s := repro.NewSystem()
	p, _ := s.SpawnProg("neg", spin, types.UserCred(100, 10))
	s.Run(2)
	s.K.EnableKTraceAll(0)
	buf := make([]byte, 64)
	for _, path := range []string{dir(p.Pid) + "/status", dir(p.Pid) + "/psinfo",
		"/procx/faults", "/procx/ktrace", "/procx/snapshot"} {
		f := openf(t, s, path, vfs.ORead)
		if _, err := f.Pread(buf, -8); err != vfs.ErrInval {
			t.Errorf("%s at -8: %v, want ErrInval", path, err)
		}
		f.Close()
	}
}

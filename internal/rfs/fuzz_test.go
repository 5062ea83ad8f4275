package rfs_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro"
	"repro/internal/kernel"
	"repro/internal/procfs"
	"repro/internal/rfs"
	"repro/internal/types"
	"repro/internal/vfs"
)

// fuzzBoot boots the system a fuzz input runs against: one spinning target
// process, and a small MaxWait on both /proc file systems so a fuzzed
// blocking wait (PIOCWSTOP, PCWSTOP) on a target that never stops gives up
// after a few passes instead of five million.
func fuzzBoot(tb testing.TB) (*repro.System, *rfs.Server, int) {
	tb.Helper()
	s := repro.NewSystem(repro.Options{NCPU: 1})
	s.Proc.MaxWait = 64
	s.Proc2.MaxWait = 64
	p, err := s.SpawnProg("target", spin, types.UserCred(100, 10))
	if err != nil {
		tb.Fatal(err)
	}
	s.Run(2)
	return s, rfs.NewServer(s.NS, nil), p.Pid
}

// recorder is a client transport that keeps every request it carries.
type recorder struct {
	srv  *rfs.Server
	reqs [][]byte
}

func (r *recorder) RoundTrip(req []byte) ([]byte, error) {
	r.reqs = append(r.reqs, append([]byte(nil), req...))
	return r.srv.Handle(req), nil
}

// frames joins requests into one fuzz input: each request is prefixed with
// its length as a big-endian u16.
func frames(reqs [][]byte) []byte {
	var b []byte
	for _, r := range reqs {
		b = binary.BigEndian.AppendUint16(b, uint16(len(r)))
		b = append(b, r...)
	}
	return b
}

// splitFrames is the inverse of frames; a length that overruns the input
// takes what is left.
func splitFrames(b []byte) [][]byte {
	var out [][]byte
	for len(b) >= 2 {
		n := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if n > len(b) {
			n = len(b)
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// seedSessions records the requests a Client sends for the remote
// operations the tools use, one session per corpus entry.
func seedSessions(tb testing.TB) [][]byte {
	sessions := []func(cl *rfs.Client, pid int) error{
		// The flat /proc: status, psinfo, an address-space read, a poll.
		func(cl *rfs.Client, pid int) error {
			f, err := cl.Open("/proc/"+procfs.PidName(pid), vfs.ORead|vfs.OWrite)
			if err != nil {
				return err
			}
			var st kernel.ProcStatus
			if err := f.Ioctl(procfs.PIOCSTATUS, &st); err != nil {
				return err
			}
			var info kernel.PSInfo
			if err := f.Ioctl(procfs.PIOCPSINFO, &info); err != nil {
				return err
			}
			if _, err := f.Pread(make([]byte, 16), int64(st.Reg.PC)); err != nil {
				return err
			}
			f.Poll(vfs.PollPri)
			return f.Close()
		},
		// A /procx control write: stop, then run.
		func(cl *rfs.Client, pid int) error {
			f, err := cl.Open(fmt.Sprintf("/procx/%d/ctl", pid), vfs.OWrite)
			if err != nil {
				return err
			}
			if _, err := f.Pwrite(ctlStop(), 0); err != nil {
				return err
			}
			if _, err := f.Pwrite(ctlRun(), 0); err != nil {
				return err
			}
			return f.Close()
		},
		// A /procx status read.
		func(cl *rfs.Client, pid int) error {
			f, err := cl.Open(fmt.Sprintf("/procx/%d/status", pid), vfs.ORead)
			if err != nil {
				return err
			}
			if _, err := f.Pread(make([]byte, 4096), 0); err != nil {
				return err
			}
			return f.Close()
		},
		// A fault-plan write.
		func(cl *rfs.Client, pid int) error {
			f, err := cl.Open("/procx/faults", vfs.OWrite)
			if err != nil {
				return err
			}
			if _, err := f.Pwrite([]byte(fmt.Sprintf("kernel.fork nth=1 pid=%d", pid)), 0); err != nil {
				return err
			}
			return f.Close()
		},
	}
	var seeds [][]byte
	for i, session := range sessions {
		_, srv, pid := fuzzBoot(tb)
		rec := &recorder{srv: srv}
		if err := session(rfs.NewClient(rec, types.RootCred()), pid); err != nil {
			tb.Fatalf("seed session %d: %v", i, err)
		}
		seeds = append(seeds, frames(rec.reqs))
	}
	return seeds
}

// FuzzServerHandle feeds arbitrary request sequences to the rfs server of
// a live system. Request bytes come from outside the trust boundary: each
// must get a reply carrying at least an error code and message, never a
// panic, and the kernel's invariants must still hold after the system runs
// on. The corpus is seeded with the requests a Client really sends.
func FuzzServerHandle(f *testing.F) {
	for _, seed := range seedSessions(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, srv, _ := fuzzBoot(t)
		for _, req := range splitFrames(in) {
			if resp := srv.Handle(req); len(resp) < 8 {
				t.Fatalf("request %x: %d-byte reply", req, len(resp))
			}
		}
		s.Run(4)
		if err := s.K.CheckInvariants(); err != nil {
			t.Fatalf("invariant broken: %v", err)
		}
	})
}

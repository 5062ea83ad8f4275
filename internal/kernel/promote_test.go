package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/vfs"
)

// refPromote is the ascending scan promote replaced: the first pending
// signal that is not held, or is SIGKILL.
func refPromote(pend, hold types.SigSet) int {
	for _, sig := range pend.Members() {
		if !hold.Has(sig) || sig == types.SIGKILL {
			return sig
		}
	}
	return 0
}

func promoteLWP(t *testing.T) *LWP {
	t.Helper()
	k := New(vfs.NewNS(nil), Config{NCPU: 1})
	p := &Proc{k: k, Pid: 99, Comm: "t", fds: map[int]*vfs.File{}}
	k.addProc(p)
	return p.newLWP()
}

// TestPromoteOrdering pins which pending signal becomes current: SIGKILL
// cannot be held, so it beats a lower-numbered held signal, but a
// lower-numbered signal that is not held still comes first.
func TestPromoteOrdering(t *testing.T) {
	cases := []struct {
		name       string
		pend, hold []int
		want       int
	}{
		{"SIGKILL beats a lower held signal",
			[]int{types.SIGINT, types.SIGKILL}, []int{types.SIGINT, types.SIGKILL}, types.SIGKILL},
		{"a lower unheld signal beats held SIGKILL",
			[]int{types.SIGINT, types.SIGKILL}, []int{types.SIGKILL}, types.SIGINT},
		{"everything held", []int{types.SIGINT, types.SIGTERM}, []int{types.SIGINT, types.SIGTERM}, 0},
		{"high unheld signal", []int{types.SIGINT, 128}, []int{types.SIGINT}, 128},
	}
	for _, c := range cases {
		l := promoteLWP(t)
		for _, s := range c.pend {
			l.Proc.SigPend.Add(s)
		}
		for _, s := range c.hold {
			l.SigHold.Add(s)
		}
		l.promote()
		if l.CurSig != c.want {
			t.Errorf("%s: CurSig = %d, want %d", c.name, l.CurSig, c.want)
		}
		if c.want != 0 && l.Proc.SigPend.Has(c.want) {
			t.Errorf("%s: promoted signal still pending", c.name)
		}
	}
}

// TestPromoteMatchesReference checks promote against the ascending scan over
// random pending and held sets, including an existing current signal, which
// must block promotion.
func TestPromoteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() types.SigSet {
		var s types.SigSet
		for i := rng.Intn(6); i > 0; i-- {
			n := rng.Intn(types.MaxSig) + 1
			if rng.Intn(2) == 0 {
				n = []int{1, types.SIGKILL, 63, 64, 65, types.MaxSig}[rng.Intn(6)]
			}
			s.Add(n)
		}
		return s
	}
	l := promoteLWP(t)
	for i := 0; i < 5000; i++ {
		pend, hold := pick(), pick()
		cur := 0
		if rng.Intn(8) == 0 {
			cur = types.SIGTERM
		}
		want, wantPend := cur, pend
		if cur == 0 {
			want = refPromote(pend, hold)
			wantPend.Del(want)
		}
		l.Proc.SigPend, l.SigHold, l.CurSig = pend, hold, cur
		l.promote()
		if l.CurSig != want || l.Proc.SigPend != wantPend {
			t.Fatalf("pend %v hold %v cur %d: CurSig %d pend %v, want %d pend %v",
				pend, hold, cur, l.CurSig, l.Proc.SigPend, want, wantPend)
		}
	}
}

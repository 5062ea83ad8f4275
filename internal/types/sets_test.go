package types

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSigSetBasics(t *testing.T) {
	var s SigSet
	if !s.IsEmpty() {
		t.Fatal("zero SigSet should be empty")
	}
	s.Add(SIGINT)
	s.Add(SIGTRAP)
	if !s.Has(SIGINT) || !s.Has(SIGTRAP) {
		t.Fatal("added members missing")
	}
	if s.Has(SIGHUP) {
		t.Fatal("unexpected member SIGHUP")
	}
	s.Del(SIGINT)
	if s.Has(SIGINT) {
		t.Fatal("Del failed")
	}
	if got := s.Members(); len(got) != 1 || got[0] != SIGTRAP {
		t.Fatalf("Members = %v, want [SIGTRAP]", got)
	}
}

func TestSigSetFillAndClear(t *testing.T) {
	var s SigSet
	s.Fill()
	for n := 1; n <= MaxSig; n++ {
		if !s.Has(n) {
			t.Fatalf("Fill missing signal %d", n)
		}
	}
	s.Clear()
	if !s.IsEmpty() {
		t.Fatal("Clear did not empty the set")
	}
}

func TestSetEnumerationFromOne(t *testing.T) {
	// There is no signal, fault, or system call number 0.
	var s SigSet
	s.Add(0)
	if !s.IsEmpty() {
		t.Fatal("Add(0) should be a no-op")
	}
	if s.Has(0) {
		t.Fatal("Has(0) should be false")
	}
	var f FltSet
	f.Add(0)
	f.Add(-3)
	if !f.IsEmpty() {
		t.Fatal("FltSet.Add(0) should be a no-op")
	}
	var y SysSet
	y.Add(0)
	y.Add(MaxSyscall + 1)
	if !y.IsEmpty() {
		t.Fatal("SysSet out-of-range Add should be a no-op")
	}
}

func TestSetBounds(t *testing.T) {
	var s SigSet
	s.Add(MaxSig)
	if !s.Has(MaxSig) {
		t.Fatal("MaxSig should be addable")
	}
	s.Add(MaxSig + 1)
	if s.Has(MaxSig + 1) {
		t.Fatal("beyond MaxSig should not be addable")
	}
	var y SysSet
	y.Add(MaxSyscall)
	if !y.Has(MaxSyscall) {
		t.Fatal("MaxSyscall should be addable")
	}
}

func TestSigSetAlgebra(t *testing.T) {
	a, b := SigSet{}, SigSet{}
	a.Add(SIGINT)
	a.Add(SIGQUIT)
	b.Add(SIGQUIT)
	b.Add(SIGTERM)
	u := a.Union(b)
	for _, sig := range []int{SIGINT, SIGQUIT, SIGTERM} {
		if !u.Has(sig) {
			t.Fatalf("union missing %s", SigName(sig))
		}
	}
	i := a.Intersect(b)
	if !i.Has(SIGQUIT) || i.Has(SIGINT) || i.Has(SIGTERM) {
		t.Fatalf("bad intersection %v", i)
	}
	m := a.Minus(b)
	if !m.Has(SIGINT) || m.Has(SIGQUIT) {
		t.Fatalf("bad difference %v", m)
	}
}

func TestSigSetFirst(t *testing.T) {
	var s SigSet
	if s.First() != 0 {
		t.Fatal("First of empty set should be 0")
	}
	s.Add(SIGTERM)
	s.Add(SIGHUP)
	if s.First() != SIGHUP {
		t.Fatalf("First = %d, want SIGHUP", s.First())
	}
}

// Property: Add then Has is true; Del then Has is false, for any valid member.
func TestQuickSigSetAddDel(t *testing.T) {
	f := func(raw uint16, seedLo, seedHi uint64) bool {
		n := int(raw%MaxSig) + 1
		s := SigSet{seedLo, seedHi}
		s.Add(n)
		if !s.Has(n) {
			return false
		}
		s.Del(n)
		return !s.Has(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: membership survives union with anything.
func TestQuickSigSetUnionMonotone(t *testing.T) {
	f := func(raw uint16, aLo, aHi, bLo, bHi uint64) bool {
		n := int(raw%MaxSig) + 1
		a := SigSet{aLo, aHi}
		b := SigSet{bLo, bHi}
		a.Add(n)
		return a.Union(b).Has(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Members() is ascending and round-trips through Add.
func TestQuickSysSetMembersRoundTrip(t *testing.T) {
	f := func(picks []uint16) bool {
		var s SysSet
		want := map[int]bool{}
		for _, p := range picks {
			n := int(p%MaxSyscall) + 1
			s.Add(n)
			want[n] = true
		}
		ms := s.Members()
		if len(ms) != len(want) {
			return false
		}
		prev := 0
		for _, m := range ms {
			if m <= prev || !want[m] {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refMembers and refFirst are the per-number scans the word-wise walks
// replaced: test every member from 1 to max in turn.
func refMembers(w []uint64, max int) []int {
	var out []int
	for n := 1; n <= max; n++ {
		if setHas(w, n, max) {
			out = append(out, n)
		}
	}
	return out
}

func refFirst(w []uint64, max int) int {
	for n := 1; n <= max; n++ {
		if setHas(w, n, max) {
			return n
		}
	}
	return 0
}

// randomSet fills w with a random member set, drawn half the time from the
// members at the word boundaries and the capacity, where an off-by-one in a
// word-wise walk would show, and half the time uniformly.
func randomSet(rng *rand.Rand, w []uint64, max int) {
	edges := []int{1, 63, 64, 65, 128, max - 1, max}
	for i := rng.Intn(8); i > 0; i-- {
		n := rng.Intn(max) + 1
		if rng.Intn(2) == 0 {
			n = edges[rng.Intn(len(edges))]
		}
		setAdd(w, n, max)
	}
}

// TestSetWalksMatchReference is the differential test for the word-wise
// walks: over random signal, fault and system-call sets, Members and First
// must agree with the per-number reference scan.
func TestSetWalksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(kind string, w []uint64, max int, members []int, first int) {
		t.Helper()
		if want := refMembers(w, max); !reflect.DeepEqual(members, want) {
			t.Fatalf("%s %x: Members = %v, want %v", kind, w, members, want)
		}
		if want := refFirst(w, max); first != want {
			t.Fatalf("%s %x: First = %d, want %d", kind, w, first, want)
		}
	}
	for i := 0; i < 5000; i++ {
		var sig SigSet
		randomSet(rng, sig[:], MaxSig)
		check("SigSet", sig[:], MaxSig, sig.Members(), sig.First())
		var flt FltSet
		randomSet(rng, flt[:], MaxFault)
		check("FltSet", flt[:], MaxFault, flt.Members(), setFirst(flt[:]))
		var sys SysSet
		randomSet(rng, sys[:], MaxSyscall)
		check("SysSet", sys[:], MaxSyscall, sys.Members(), setFirst(sys[:]))
	}
	var full SigSet
	full.Fill()
	check("full SigSet", full[:], MaxSig, full.Members(), full.First())
}

func TestSigNames(t *testing.T) {
	cases := map[int]string{
		SIGHUP:  "SIGHUP",
		SIGKILL: "SIGKILL",
		SIGTRAP: "SIGTRAP",
		SIGCONT: "SIGCONT",
		64:      "SIG64",
	}
	for sig, want := range cases {
		if got := SigName(sig); got != want {
			t.Errorf("SigName(%d) = %q, want %q", sig, got, want)
		}
	}
	if SigNumber("SIGTRAP") != SIGTRAP {
		t.Error("SigNumber(SIGTRAP) wrong")
	}
	if SigNumber("SIG99") != 99 {
		t.Error("SigNumber(SIG99) wrong")
	}
	if SigNumber("nonsense") != 0 {
		t.Error("SigNumber(nonsense) should be 0")
	}
}

func TestFltNames(t *testing.T) {
	if FltName(FLTBPT) != "FLTBPT" {
		t.Error("FltName(FLTBPT) wrong")
	}
	if FltName(100) != "FLT100" {
		t.Errorf("FltName(100) = %q", FltName(100))
	}
}

func TestFaultSignalMapping(t *testing.T) {
	cases := map[int]int{
		FLTBPT:    SIGTRAP,
		FLTTRACE:  SIGTRAP,
		FLTILL:    SIGILL,
		FLTPRIV:   SIGILL,
		FLTACCESS: SIGSEGV,
		FLTBOUNDS: SIGSEGV,
		FLTIZDIV:  SIGFPE,
		FLTPAGE:   0,
		FLTWATCH:  SIGTRAP,
	}
	for flt, want := range cases {
		if got := FaultSignal(flt); got != want {
			t.Errorf("FaultSignal(%s) = %d, want %d", FltName(flt), got, want)
		}
	}
}

func TestDefaultDispositions(t *testing.T) {
	if SigDefault(SIGKILL) != DispTerminate {
		t.Error("SIGKILL default should terminate")
	}
	if SigDefault(SIGQUIT) != DispCore {
		t.Error("SIGQUIT default should core")
	}
	if SigDefault(SIGCHLD) != DispIgnore {
		t.Error("SIGCHLD default should ignore")
	}
	if SigDefault(SIGTSTP) != DispStop {
		t.Error("SIGTSTP default should stop")
	}
	if SigDefault(SIGCONT) != DispContinue {
		t.Error("SIGCONT default should continue")
	}
	for _, sig := range []int{SIGSTOP, SIGTSTP, SIGTTIN, SIGTTOU} {
		if !IsJobControlStop(sig) {
			t.Errorf("%s should be a job-control stop", SigName(sig))
		}
	}
	if IsJobControlStop(SIGINT) {
		t.Error("SIGINT is not a job-control stop")
	}
}

func TestSetString(t *testing.T) {
	var s SigSet
	if s.String() != "{}" {
		t.Errorf("empty set String = %q", s.String())
	}
	s.Add(SIGINT)
	s.Add(SIGTRAP)
	if s.String() != "{SIGINT,SIGTRAP}" {
		t.Errorf("String = %q", s.String())
	}
	var f FltSet
	f.Add(FLTBPT)
	if f.String() != "{FLTBPT}" {
		t.Errorf("FltSet String = %q", f.String())
	}
}

func TestCred(t *testing.T) {
	c := UserCred(100, 10)
	if c.IsSuper() {
		t.Error("uid 100 should not be super")
	}
	if !RootCred().IsSuper() {
		t.Error("root should be super")
	}
	c.Groups = []int{10, 20}
	if !c.InGroup(20) || c.InGroup(30) {
		t.Error("InGroup wrong")
	}
	d := c.Clone()
	d.Groups[0] = 99
	if c.Groups[0] == 99 {
		t.Error("Clone should deep-copy groups")
	}
}

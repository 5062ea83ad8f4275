// Package types defines the fundamental SVR4 process-model types shared by
// every subsystem in the reproduction: the POSIX signal set type sigset_t and
// its analogues for machine faults (fltset_t) and system calls (sysset_t),
// together with the SVR4 signal and fault name spaces.
//
// As in the paper, signals, faults and system calls are enumerated from 1;
// there is no fault number 0 or system call number 0. The implementation
// provides for up to 128 signals, 128 faults and 512 system calls.
package types

import (
	"fmt"
	"math/bits"
	"strings"
)

// Capacity limits, as documented in the paper for the SVR4 implementation.
const (
	MaxSig     = 128 // maximum signal number
	MaxFault   = 128 // maximum machine-fault number
	MaxSyscall = 512 // maximum system-call number
)

// SigSet is the POSIX signal set type (sigset_t): a bitset of the signals
// 1..MaxSig. The zero value is the empty set.
type SigSet [2]uint64

// FltSet is the machine-fault set type (fltset_t): a bitset of the faults
// 1..MaxFault. The zero value is the empty set.
type FltSet [2]uint64

// SysSet is the system-call set type (sysset_t): a bitset of the system calls
// 1..MaxSyscall. The zero value is the empty set.
type SysSet [8]uint64

// bit returns the word index and mask for member n (1-based).
// Members are numbered from 1; bit 0 of word 0 corresponds to member 1.
func bit(n int) (word int, mask uint64) {
	n--
	return n / 64, 1 << uint(n%64)
}

func setAdd(w []uint64, n, max int) {
	if n < 1 || n > max {
		return
	}
	i, m := bit(n)
	w[i] |= m
}

func setDel(w []uint64, n, max int) {
	if n < 1 || n > max {
		return
	}
	i, m := bit(n)
	w[i] &^= m
}

func setHas(w []uint64, n, max int) bool {
	if n < 1 || n > max {
		return false
	}
	i, m := bit(n)
	return w[i]&m != 0
}

func setFill(w []uint64) {
	for i := range w {
		w[i] = ^uint64(0)
	}
}

func setEmpty(w []uint64) bool {
	for _, v := range w {
		if v != 0 {
			return false
		}
	}
	return true
}

// setMembers lists the members in ascending order, a word at a time: each
// step peels the lowest set bit, so the cost follows the population, not
// the capacity. Every set type's capacity is a whole number of words, so
// every bit of w is a valid member.
func setMembers(w []uint64) []int {
	var out []int
	for i, v := range w {
		for v != 0 {
			out = append(out, i*64+bits.TrailingZeros64(v)+1)
			v &= v - 1
		}
	}
	return out
}

// setFirst returns the lowest-numbered member, or 0 if the set is empty.
func setFirst(w []uint64) int {
	for i, v := range w {
		if v != 0 {
			return i*64 + bits.TrailingZeros64(v) + 1
		}
	}
	return 0
}

func setString(w []uint64, name func(int) string) string {
	ms := setMembers(w)
	if len(ms) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range ms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name(n))
	}
	b.WriteByte('}')
	return b.String()
}

// Add includes signal sig in the set (praddset).
func (s *SigSet) Add(sig int) { setAdd(s[:], sig, MaxSig) }

// Del removes signal sig from the set (prdelset).
func (s *SigSet) Del(sig int) { setDel(s[:], sig, MaxSig) }

// Has reports whether signal sig is a member of the set (prismember).
func (s SigSet) Has(sig int) bool { return setHas(s[:], sig, MaxSig) }

// Fill makes the set contain every signal (prfillset).
func (s *SigSet) Fill() { setFill(s[:]) }

// Clear makes the set empty (premptyset).
func (s *SigSet) Clear() { *s = SigSet{} }

// IsEmpty reports whether the set has no members.
func (s SigSet) IsEmpty() bool { return setEmpty(s[:]) }

// Members returns the signals in the set in ascending order.
func (s SigSet) Members() []int { return setMembers(s[:]) }

// Union returns the union of s and t.
func (s SigSet) Union(t SigSet) SigSet {
	return SigSet{s[0] | t[0], s[1] | t[1]}
}

// Intersect returns the intersection of s and t.
func (s SigSet) Intersect(t SigSet) SigSet {
	return SigSet{s[0] & t[0], s[1] & t[1]}
}

// Minus returns the members of s that are not in t.
func (s SigSet) Minus(t SigSet) SigSet {
	return SigSet{s[0] &^ t[0], s[1] &^ t[1]}
}

// First returns the lowest-numbered member of the set, or 0 if empty.
func (s SigSet) First() int { return setFirst(s[:]) }

// String renders the set using signal names, e.g. {SIGINT,SIGTRAP}.
func (s SigSet) String() string { return setString(s[:], SigName) }

// Add includes fault flt in the set.
func (f *FltSet) Add(flt int) { setAdd(f[:], flt, MaxFault) }

// Del removes fault flt from the set.
func (f *FltSet) Del(flt int) { setDel(f[:], flt, MaxFault) }

// Has reports whether fault flt is a member of the set.
func (f FltSet) Has(flt int) bool { return setHas(f[:], flt, MaxFault) }

// Fill makes the set contain every fault.
func (f *FltSet) Fill() { setFill(f[:]) }

// Clear makes the set empty.
func (f *FltSet) Clear() { *f = FltSet{} }

// IsEmpty reports whether the set has no members.
func (f FltSet) IsEmpty() bool { return setEmpty(f[:]) }

// Members returns the faults in the set in ascending order.
func (f FltSet) Members() []int { return setMembers(f[:]) }

// String renders the set using fault names, e.g. {FLTBPT}.
func (f FltSet) String() string { return setString(f[:], FltName) }

// Add includes system call sys in the set.
func (s *SysSet) Add(sys int) { setAdd(s[:], sys, MaxSyscall) }

// Del removes system call sys from the set.
func (s *SysSet) Del(sys int) { setDel(s[:], sys, MaxSyscall) }

// Has reports whether system call sys is a member of the set.
func (s SysSet) Has(sys int) bool { return setHas(s[:], sys, MaxSyscall) }

// Fill makes the set contain every system call.
func (s *SysSet) Fill() { setFill(s[:]) }

// Clear makes the set empty.
func (s *SysSet) Clear() { *s = SysSet{} }

// IsEmpty reports whether the set has no members.
func (s SysSet) IsEmpty() bool { return setEmpty(s[:]) }

// Members returns the system calls in the set in ascending order.
func (s SysSet) Members() []int { return setMembers(s[:]) }

// String renders the set as system call numbers, e.g. {3,4}.
func (s SysSet) String() string {
	return setString(s[:], func(n int) string { return fmt.Sprint(n) })
}

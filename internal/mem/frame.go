package mem

// This file is the frame-exposure side of the address space's fast-path /
// slow-path split (the UVM-style division of labor): the vCPU keeps a small
// software TLB of page translations, and the address space exposes the
// physical side of a translation — a directly addressable page frame — plus
// the generation protocol that tells caches when any translation may have
// gone stale.
//
// The contract has two layers:
//
//   - AS.Gen() is bumped by every mapping-state change: Map, Unmap,
//     Mprotect, Brk, automatic stack growth, copy-on-write page
//     materialization, watchpoint changes, and anything else that could
//     change what PageFrame would return. A cached Frame is valid only
//     while Gen() is unchanged (and the AS pointer itself is unchanged —
//     exec replaces the whole space).
//
//   - Object-backed frames alias the backing object's own storage, which
//     can move or change underneath the mapping (a write to the mapped
//     file) without the address space hearing about it. Such frames carry
//     the object's revision counter; users must revalidate Obj.ObjRev()
//     == Rev before every use. Frames backed by private pages or the zero
//     page have Obj == nil and need no revalidation.
//
// Pages that are watched, shared, or private-but-unmaterialized with no
// stable backing bytes are never exposed: accesses to them must take the
// slow path so watchpoint (FLTWATCH), copy-on-write, and write-through
// semantics stay bit-for-bit identical to the unaccelerated interpreter.

// RevBytes is an optional Object extension for backing stores whose entire
// content lives in one in-memory byte slice. It lets the address space hand
// out direct page frames over the object's storage. ObjBytes returns the
// current slice and a revision counter; the slice may be aliased only while
// ObjRev still returns the same revision. Implementations must change the
// revision on every content or size change (in-place or reallocating).
type RevBytes interface {
	Object
	// ObjBytes returns the current backing bytes and their revision.
	ObjBytes() ([]byte, uint64)
	// ObjRev returns the current revision; it must be cheap and callable
	// without heavyweight locking (it is consulted on every cached access).
	ObjRev() uint64
}

// Frame is a directly addressable page exposed to the vCPU fast path by
// PageFrame. Data is exactly one page long and aliases live storage: reads
// and writes through it are immediately visible to the slow path and vice
// versa — the cache holds translations, never data.
type Frame struct {
	Data     []byte   // one page of live storage
	Prot     Prot     // effective permissions of the mapping
	Writable bool     // stores may write Data directly (materialized private page)
	Obj      RevBytes // non-nil: revalidate ObjRev() == Rev before every use
	Rev      uint64
}

// PageFrame returns a cacheable frame for the page containing addr. ok ==
// false means accesses to the page must take the slow path: the page is
// unmapped (possibly pending automatic stack growth, which only the slow
// path performs), shared, watched, or private-unmaterialized without stable
// backing bytes. The frame is valid until Gen() changes; object-backed
// frames additionally require ObjRev() revalidation per use.
//
// PageFrame itself has no side effects on the address space beyond the lazy
// allocation of the shared zero page and of the padded-page snapshot: it
// never grows the stack, never materializes a page, and never counts a
// fault.
func (as *AS) PageFrame(addr uint32) (Frame, bool) {
	as.mu.Lock()
	defer as.mu.Unlock()
	pb := as.pageBase(addr)
	s := as.FindSeg(pb)
	if s == nil || s.Shared || as.watchPgs[pb] {
		return Frame{}, false
	}
	if uint64(pb)+uint64(as.pagesize) > s.End() {
		// Defensive: mappings are page-granular, so a mapped page base
		// implies the whole page is mapped; never expose a short frame.
		return Frame{}, false
	}
	if pg, ok := s.priv[pb]; ok {
		// A materialized private page: the one case stores may hit
		// directly (no copy-on-write left to do, no write-through).
		return Frame{Data: pg, Prot: s.Prot, Writable: true}, true
	}
	if s.Obj == nil {
		// Private anonymous, never written: reads see zeros. The shared
		// zero page serves reads; the first store must take the slow path
		// to materialize (and count) the page.
		if as.zero == nil {
			as.zero = make([]byte, as.pagesize)
		}
		return Frame{Data: as.zero, Prot: s.Prot}, true
	}
	if rb, ok := s.Obj.(RevBytes); ok {
		data, rev := rb.ObjBytes()
		off := s.Off + int64(pb) - int64(s.Base)
		if off < 0 {
			return Frame{}, false
		}
		if off+int64(as.pagesize) <= int64(len(data)) {
			return Frame{
				Data: data[off : off+int64(as.pagesize) : off+int64(as.pagesize)],
				Prot: s.Prot, Obj: rb, Rev: rev,
			}, true
		}
		// The page extends past the object: reads zero-fill beyond its
		// size, so alias-by-slice is impossible. Expose a zero-padded
		// snapshot instead; the revision check invalidates it the moment
		// the object changes (including growing into the padding). This
		// is the common case for small programs, whose whole text is
		// shorter than a page, so the last snapshot is kept and handed out
		// again while its key matches: every generation bump (a
		// copy-on-write fault, a brk) drops the TLB, and the refill of the
		// text page then costs no allocation.
		if pd := &as.pad; pd.data == nil || pd.obj != rb || pd.off != off || pd.rev != rev {
			cp := make([]byte, as.pagesize)
			if off < int64(len(data)) {
				copy(cp, data[off:])
			}
			// A fresh slice, never a refill of the old one: TLB entries
			// may still alias the previous snapshot.
			*pd = padFrame{obj: rb, off: off, rev: rev, data: cp}
		}
		return Frame{Data: as.pad.data, Prot: s.Prot, Obj: rb, Rev: rev}, true
	}
	return Frame{}, false
}

// padFrame is the zero-padded copy of the object page at off as of
// revision rev. The copy is never written after it is built (frames over it
// are not Writable), so it stays valid for exactly that key.
type padFrame struct {
	obj  RevBytes
	off  int64
	rev  uint64
	data []byte
}

// Gen returns the address space's translation generation: it changes every
// time a cached page translation could have become stale. Caches must
// revalidate against it (and against the AS identity itself) before every
// use of a cached frame. The counter is atomic so a vCPU running on one
// host CPU observes a bump made by a mutator on another without taking the
// address-space lock — this is the cross-CPU TLB shootdown generation: a
// per-access load of Gen makes every remote invalidation visible before the
// next cached translation is used.
func (as *AS) Gen() uint64 { return as.gen.Load() }

// invalidate bumps the translation generation. Every mutation of mapping
// state — addresses, lengths, permissions, watchpoints, or which backing
// store a page resolves to — must pass through here.
func (as *AS) invalidate() { as.gen.Add(1) }

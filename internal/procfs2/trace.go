package procfs2

import (
	"io"

	"repro/internal/ktrace"
	"repro/internal/types"
	"repro/internal/vfs"
)

// Root-level tracing files: the kernel-wide counters page and the kernel-wide
// event stream. They sit beside the pid directories in /procx.
const (
	RootKTrace = "ktrace" // read-only: ktrace.EncodeStats counters page
	RootTrace  = "trace"  // read-only: the kernel-wide event stream
)

// ringRead serves a ktrace ring as file contents, translating the ring's
// window semantics to vfs errors: reads past the stream return EOF (nothing
// there yet — poll and retry), reads before the retained window report the
// data loss instead of returning silently skewed bytes.
func ringRead(r *ktrace.Ring, b []byte, off int64) (int, error) {
	if r == nil {
		return 0, vfs.EOF
	}
	n, err := r.ReadAt(b, off)
	switch err {
	case nil:
		return n, nil
	case io.EOF:
		return n, vfs.EOF
	default:
		return n, vfs.Errorf("procfs2: trace: %w", err)
	}
}

// ringSize is the nominal file size of a ring: the whole stream so far, even
// though only the tail is retained.
func ringSize(r *ktrace.Ring) int64 {
	if r == nil {
		return 0
	}
	return int64(r.NextSeq()) * ktrace.EventSize
}

// rootTraceVnode is /procx/ktrace or /procx/trace.
type rootTraceVnode struct {
	fs   *FS
	name string
}

// VAttr implements vfs.Vnode.
func (v *rootTraceVnode) VAttr() (vfs.Attr, error) {
	mode := uint16(0o444)
	size := int64(0)
	if v.name == RootTrace {
		mode = 0o400 // the global stream exposes every process: root only
		size = ringSize(v.fs.K.KT)
	}
	return vfs.Attr{Type: vfs.VPROC, Mode: mode,
		Size: size, MTime: v.fs.K.Now(), Nlink: 1}, nil
}

// VOpen implements vfs.Vnode.
func (v *rootTraceVnode) VOpen(flags int, c types.Cred) (vfs.Handle, error) {
	if flags&vfs.OWrite != 0 {
		return nil, vfs.ErrPerm
	}
	if v.name == RootTrace && !c.IsSuper() {
		return nil, vfs.ErrPerm
	}
	return &rootTraceHandle{v: v}, nil
}

// rootTraceHandle is the open state of a root-level tracing file.
type rootTraceHandle struct {
	v      *rootTraceVnode
	closed bool
}

// HRead implements vfs.Handle.
func (h *rootTraceHandle) HRead(b []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrBadFD
	}
	if h.v.name == RootKTrace {
		return readSnap(b, ktrace.EncodeStats(h.v.fs.K.KTraceStats()), off)
	}
	return ringRead(h.v.fs.K.KT, b, off)
}

// HWrite implements vfs.Handle.
func (h *rootTraceHandle) HWrite(b []byte, off int64) (int, error) {
	return 0, vfs.ErrBadFD
}

// HIoctl implements vfs.Handle.
func (h *rootTraceHandle) HIoctl(cmd int, arg interface{}) error { return vfs.ErrNoIoctl }

// HClose implements vfs.Handle.
func (h *rootTraceHandle) HClose() error {
	if h.closed {
		return vfs.ErrBadFD
	}
	h.closed = true
	return nil
}

// HSaveState / HLoadState implement vfs.HandleSnapshotter.
func (h *rootTraceHandle) HSaveState() any { return h.closed }
func (h *rootTraceHandle) HLoadState(st any) {
	if c, ok := st.(bool); ok {
		h.closed = c
	}
}

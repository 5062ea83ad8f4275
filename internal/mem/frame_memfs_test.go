package mem_test

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/memfs"
)

// TestPaddedFrameFollowsFileWrites maps a memfs file shorter than a page,
// as program text is, and rewrites it: the next frame must carry the new
// contents, never the cached padded copy of the old ones, and the frame
// handed out before the write must fail its revision check.
func TestPaddedFrameFollowsFileWrites(t *testing.T) {
	fs := memfs.New(func() int64 { return 0 })
	if err := fs.WriteFile("/bin/prog", []byte("old"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	obj, err := fs.Object("/bin/prog")
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAS(4096)
	if _, err := as.Map(mem.MapArgs{Base: 0x10000, Len: 4096, Prot: mem.ProtRX, Obj: obj, Fixed: true}); err != nil {
		t.Fatal(err)
	}
	old, ok := as.PageFrame(0x10000)
	if !ok || !bytes.Equal(old.Data[:4], []byte("old\x00")) {
		t.Fatal("no padded frame over the file")
	}

	check := func(what string, want []byte) {
		t.Helper()
		f, ok := as.PageFrame(0x10000)
		if !ok || !bytes.Equal(f.Data[:len(want)], want) {
			t.Fatalf("after %s: frame starts %q, want %q", what, f.Data[:len(want)], want)
		}
		if old.Obj.ObjRev() == old.Rev {
			t.Fatalf("after %s: the old frame still passes its revision check", what)
		}
	}
	if err := fs.WriteFile("/bin/prog", []byte("new!"), 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	check("WriteFile", []byte("new!\x00"))
	if err := obj.WriteObj([]byte("NE"), 0); err != nil {
		t.Fatal(err)
	}
	check("WriteObj", []byte("NEw!\x00"))
}

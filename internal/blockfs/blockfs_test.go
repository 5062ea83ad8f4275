package blockfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/types"
	"repro/internal/vfs"
)

var testCred = types.RootCred()

// newTestFS formats a fresh in-memory device and mounts it.
func newTestFS(t *testing.T, nblocks uint32, opts ...MountOptions) (*FS, *MemDev) {
	t.Helper()
	dev := NewMemDev(nblocks)
	if err := Mkfs(dev, 0); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	fs, err := Mount(dev, opts...)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs, dev
}

// writeFile creates (or truncates) path components under dir and writes data.
func writeFile(d vfs.Dir, name string, data []byte) error {
	dw := d.(vfs.DirWriter)
	vn, err := d.VLookup(name, testCred)
	if err == vfs.ErrNotExist {
		vn, err = dw.VCreate(name, 0o644, testCred)
	}
	if err != nil {
		return err
	}
	h, err := vn.VOpen(vfs.OWrite|vfs.OTrunc, testCred)
	if err != nil {
		return err
	}
	defer h.HClose()
	n, err := h.HWrite(data, 0)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("short write: %d of %d", n, len(data))
	}
	return nil
}

// readFile reads the whole file name under dir.
func readFile(d vfs.Dir, name string) ([]byte, error) {
	vn, err := d.VLookup(name, testCred)
	if err != nil {
		return nil, err
	}
	h, err := vn.VOpen(vfs.ORead, testCred)
	if err != nil {
		return nil, err
	}
	defer h.HClose()
	var out []byte
	buf := make([]byte, 4096)
	off := int64(0)
	for {
		n, err := h.HRead(buf, off)
		out = append(out, buf[:n]...)
		off += int64(n)
		if err == vfs.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// dumpTree walks the mounted file system and returns path -> contents for
// every regular file (paths relative to the root, '/'-joined).
func dumpTree(t *testing.T, fs *FS) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	var walk func(d vfs.Dir, prefix string)
	walk = func(d vfs.Dir, prefix string) {
		ents, err := d.VReadDir(testCred)
		if err != nil {
			t.Fatalf("readdir %q: %v", prefix, err)
		}
		for _, e := range ents {
			vn, err := d.VLookup(e.Name, testCred)
			if err != nil {
				t.Fatalf("lookup %s%s: %v", prefix, e.Name, err)
			}
			if sub, ok := vn.(vfs.Dir); ok && e.Attr.Type == vfs.VDIR {
				walk(sub, prefix+e.Name+"/")
				continue
			}
			data, err := readFile(d, e.Name)
			if err != nil {
				t.Fatalf("read %s%s: %v", prefix, e.Name, err)
			}
			out[prefix+e.Name] = data
		}
	}
	walk(fs.Root(), "")
	return out
}

// mustCleanFsck fails the test if the checker reports any violation.
func mustCleanFsck(t *testing.T, fs *FS, ctx string) {
	t.Helper()
	if bad := fs.Fsck(); len(bad) != 0 {
		t.Fatalf("%s: fsck reported %d violations:\n  %v", ctx, len(bad), bad)
	}
}

// pattern produces deterministic file contents.
func pattern(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	p := make([]byte, n)
	r.Read(p)
	return p
}

func TestBasicFileOps(t *testing.T) {
	fault.Guard(t)
	fs, dev := newTestFS(t, 2048)
	root := fs.Root()

	small := pattern(1, 100)
	big := pattern(2, (NDirect+5)*BlockSize) // crosses into the indirect block
	if err := writeFile(root, "small", small); err != nil {
		t.Fatalf("write small: %v", err)
	}
	if err := writeFile(root, "big", big); err != nil {
		t.Fatalf("write big: %v", err)
	}
	dw := root.(vfs.DirWriter)
	sub, err := dw.VMkdir("sub", 0o755, testCred)
	if err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := writeFile(sub, "inner", small); err != nil {
		t.Fatalf("write sub/inner: %v", err)
	}
	mustCleanFsck(t, fs, "after ops")

	got := dumpTree(t, fs)
	want := map[string][]byte{"small": small, "big": big, "sub/inner": small}
	if len(got) != len(want) {
		t.Fatalf("tree has %d files, want %d: %v", len(got), len(want), keysOf(got))
	}
	for p, w := range want {
		if !bytes.Equal(got[p], w) {
			t.Fatalf("file %q content mismatch (%d vs %d bytes)", p, len(got[p]), len(w))
		}
	}

	// Persistence: checkpoint, remount the raw device, re-verify.
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	mustCleanFsck(t, fs2, "after remount")
	got2 := dumpTree(t, fs2)
	for p, w := range want {
		if !bytes.Equal(got2[p], w) {
			t.Fatalf("after remount, file %q content mismatch", p)
		}
	}
}

func keysOf(m map[string][]byte) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestUnlinkAndReuse(t *testing.T) {
	fault.Guard(t)
	fs, _ := newTestFS(t, 1024)
	root := fs.Root()
	dw := root.(vfs.DirWriter)

	if err := writeFile(root, "a", pattern(3, 3*BlockSize)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := dw.VRemove("a", testCred); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := root.VLookup("a", testCred); err != vfs.ErrNotExist {
		t.Fatalf("lookup after unlink: %v, want ErrNotExist", err)
	}
	// The freed zones must be reusable, and must read back as the new
	// file's data, not the old file's cached blocks.
	fresh := pattern(4, 3*BlockSize)
	if err := writeFile(root, "b", fresh); err != nil {
		t.Fatalf("write b: %v", err)
	}
	got, err := readFile(root, "b")
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("reread b: err=%v, equal=%v", err, bytes.Equal(got, fresh))
	}
	mustCleanFsck(t, fs, "after reuse")
}

func TestStaleHandleAfterUnlink(t *testing.T) {
	fault.Guard(t)
	fs, _ := newTestFS(t, 1024)
	root := fs.Root()
	dw := root.(vfs.DirWriter)

	if err := writeFile(root, "doomed", pattern(5, 64)); err != nil {
		t.Fatalf("write: %v", err)
	}
	vn, err := root.VLookup("doomed", testCred)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	h, err := vn.VOpen(vfs.ORead|vfs.OWrite, testCred)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := dw.VRemove("doomed", testCred); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := h.HRead(make([]byte, 8), 0); !errors.Is(err, vfs.ErrStale) {
		t.Fatalf("read through unlinked handle: %v, want ErrStale", err)
	}
	if _, err := h.HWrite([]byte("x"), 0); !errors.Is(err, vfs.ErrStale) {
		t.Fatalf("write through unlinked handle: %v, want ErrStale", err)
	}
}

func TestRmdirSemantics(t *testing.T) {
	fault.Guard(t)
	fs, _ := newTestFS(t, 1024)
	dw := fs.Root().(vfs.DirWriter)

	sub, err := dw.VMkdir("d", 0o755, testCred)
	if err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := writeFile(sub, "f", []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := dw.VRemove("d", testCred); err != vfs.ErrBusy {
		t.Fatalf("remove non-empty dir: %v, want ErrBusy", err)
	}
	if err := sub.(vfs.DirWriter).VRemove("f", testCred); err != nil {
		t.Fatalf("remove file: %v", err)
	}
	if err := dw.VRemove("d", testCred); err != nil {
		t.Fatalf("remove empty dir: %v", err)
	}
	mustCleanFsck(t, fs, "after rmdir")
}

func TestNoSpaceAndRecovery(t *testing.T) {
	fault.Guard(t)
	// A tiny device: layout leaves only a handful of data blocks.
	fs, _ := newTestFS(t, 128)
	root := fs.Root()
	dw := root.(vfs.DirWriter)

	// Fill until ENOSPC.
	var created []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("f%d", i)
		err := writeFile(root, name, pattern(int64(i), 2*BlockSize))
		if err == nil {
			created = append(created, name)
			continue
		}
		if !errors.Is(err, vfs.ErrNoSpace) {
			t.Fatalf("fill: %v, want ErrNoSpace", err)
		}
		// The failed create may have left an empty file (create and write
		// are separate transactions); that's POSIX-honest, not a leak.
		break
	}
	if len(created) == 0 {
		t.Fatalf("no files fit on the device")
	}
	mustCleanFsck(t, fs, "at ENOSPC")

	// Freeing one file must make space reusable.
	if err := dw.VRemove(created[0], testCred); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := writeFile(root, "again", pattern(99, 2*BlockSize)); err != nil {
		t.Fatalf("write after free: %v", err)
	}
	mustCleanFsck(t, fs, "after reuse")
}

func TestTruncateOnOpen(t *testing.T) {
	fault.Guard(t)
	fs, _ := newTestFS(t, 2048)
	root := fs.Root()

	big := pattern(7, (NDirect+3)*BlockSize)
	if err := writeFile(root, "f", big); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := writeFile(root, "f", []byte("tiny")); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, err := readFile(root, "f")
	if err != nil || string(got) != "tiny" {
		t.Fatalf("after trunc: %q, %v", got, err)
	}
	mustCleanFsck(t, fs, "after truncate") // the old zones must all be freed
}

func TestSparseWriteZeroFills(t *testing.T) {
	fault.Guard(t)
	fs, _ := newTestFS(t, 2048)
	root := fs.Root()

	vn, err := root.(vfs.DirWriter).VCreate("s", 0o644, testCred)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	h, err := vn.VOpen(vfs.OWrite|vfs.ORead, testCred)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Write beyond EOF: the hole zones must exist and read as zeros.
	if _, err := h.HWrite([]byte("end"), 5*BlockSize); err != nil {
		t.Fatalf("write at hole: %v", err)
	}
	got, err := readFile(root, "s")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := append(make([]byte, 5*BlockSize), 'e', 'n', 'd')
	if !bytes.Equal(got, want) {
		t.Fatalf("sparse content mismatch: %d bytes", len(got))
	}
	mustCleanFsck(t, fs, "after sparse write")
}

func TestSmallCacheEviction(t *testing.T) {
	fault.Guard(t)
	// A cache far smaller than the working set forces eviction and
	// write-back on every path; contents must still round-trip.
	// CacheSlots below the floor clamps to minCacheSlots; a working set of
	// 20 files x 4 zones comfortably exceeds it.
	fs, dev := newTestFS(t, 2048, MountOptions{CacheSlots: 8})
	root := fs.Root()
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("f%d", i)
		data := pattern(int64(100+i), 4*BlockSize)
		if err := writeFile(root, name, data); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		want[name] = data
	}
	got := dumpTree(t, fs)
	for p, w := range want {
		if !bytes.Equal(got[p], w) {
			t.Fatalf("file %q mismatch with tiny cache", p)
		}
	}
	mustCleanFsck(t, fs, "tiny cache")
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	fs2, err := Mount(dev, MountOptions{CacheSlots: 8})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	mustCleanFsck(t, fs2, "tiny cache remount")
}

func TestMountRejectsGarbage(t *testing.T) {
	fault.Guard(t)
	dev := NewMemDev(256)
	if _, err := Mount(dev); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mount of unformatted device: %v, want ErrCorrupt", err)
	}
	ok, err := IsFormatted(dev)
	if err != nil || ok {
		t.Fatalf("IsFormatted on blank device: %v, %v", ok, err)
	}
	if err := Mkfs(dev, 0); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	ok, err = IsFormatted(dev)
	if err != nil || !ok {
		t.Fatalf("IsFormatted after mkfs: %v, %v", ok, err)
	}
}

// TestFsckFlagsDuplicateNames hand-crafts a directory with two live slots of
// the same name. Fsck must report it; lookups keep resolving the name to the
// first slot, and removing that slot uncovers the second.
func TestFsckFlagsDuplicateNames(t *testing.T) {
	fault.Guard(t)
	fs, dev := newTestFS(t, 1024)
	root := fs.Root()
	ino := func(fs *FS, name string) uint32 {
		t.Helper()
		vn, err := fs.Root().VLookup(name, testCred)
		if err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
		return vn.(*bnode).ino
	}
	if err := writeFile(root, "a", []byte("first")); err != nil {
		t.Fatalf("write a: %v", err)
	}
	if err := writeFile(root, "b", []byte("second")); err != nil {
		t.Fatalf("write b: %v", err)
	}
	aIno, bIno := ino(fs, "a"), ino(fs, "b")
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	// Rename b's slot (the root's second) to "a" on the raw image.
	di, err := fs.readInode(RootIno)
	if err != nil {
		t.Fatalf("root inode: %v", err)
	}
	slot := dev.data[int(di.zones[0])*BlockSize+DirentSize:]
	if got, name := decodeDirent(slot); got != bIno || name != "b" {
		t.Fatalf("slot 1 holds %d %q, want %d \"b\"", got, name, bIno)
	}
	encodeDirent(slot, bIno, "a")

	fs2, err := Mount(dev)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	want := []string{fmt.Sprintf("ino %d: duplicate entry %q at %d and %d", RootIno, "a", 0, DirentSize)}
	if bad := fs2.Fsck(); len(bad) != 1 || bad[0] != want[0] {
		t.Fatalf("fsck: %q, want %q", bad, want)
	}
	if got := ino(fs2, "a"); got != aIno {
		t.Fatalf("lookup of duplicate name: ino %d, want the first slot's %d", got, aIno)
	}
	if data, err := readFile(fs2.Root(), "a"); err != nil || string(data) != "first" {
		t.Fatalf("read a: %q, %v", data, err)
	}
	mustIndexMatch(t, fs2, "duplicate image")

	dw := fs2.Root().(vfs.DirWriter)
	if err := dw.VRemove("a", testCred); err != nil {
		t.Fatalf("remove first a: %v", err)
	}
	mustIndexMatch(t, fs2, "after first remove")
	if got := ino(fs2, "a"); got != bIno {
		t.Fatalf("after removing the first slot, a is ino %d, want %d", got, bIno)
	}
	if err := dw.VRemove("a", testCred); err != nil {
		t.Fatalf("remove second a: %v", err)
	}
	mustIndexMatch(t, fs2, "after second remove")
	mustCleanFsck(t, fs2, "after removing both")
}

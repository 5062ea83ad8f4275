package blockfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/vfs"
)

// peekBlock returns block no as the file system currently sees it: the
// cached buffer if there is one, else the device's copy. Unlike cache.get
// it moves nothing in the LRU order, evicts nothing and passes no fault
// site, so a check built on it cannot change the device-write sequence or
// the fault plans of the run it inspects.
func (fs *FS) peekBlock(no uint32) ([]byte, error) {
	if b, ok := fs.c.m[no]; ok {
		return b.data, nil
	}
	p := make([]byte, BlockSize)
	return p, fs.dev.ReadBlock(no, p)
}

// checkDirIndex compares every cached directory index with the directory's
// raw slots: the first slot of each live name, the count of hidden
// duplicates, and the ascending free-slot list.
func (fs *FS) checkDirIndex() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	inos := make([]uint32, 0, len(fs.dirs))
	for ino := range fs.dirs {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		d := fs.dirs[ino]
		blk, ioff := fs.inodeLoc(ino)
		ib, err := fs.peekBlock(blk)
		if err != nil {
			return err
		}
		di := decodeInode(ib[ioff:])
		if di.typ != typeDir {
			return fmt.Errorf("dir %d: indexed, but its inode has type %d", ino, di.typ)
		}
		names := map[string]dirSlot{}
		free := []uint64{}
		dups := 0
		for off := uint64(0); off < di.size; off += DirentSize {
			zi := uint32(off / BlockSize)
			z := uint32(0)
			if zi < NDirect {
				z = di.zones[zi]
			} else {
				ind, err := fs.peekBlock(di.ind)
				if err != nil {
					return err
				}
				z = le32(ind, int(zi-NDirect)*4)
			}
			p, err := fs.peekBlock(z)
			if err != nil {
				return err
			}
			child, name := decodeDirent(p[off%BlockSize:])
			switch _, dup := names[name]; {
			case child == 0:
				free = append(free, off)
			case dup:
				dups++
			default:
				names[name] = dirSlot{child, off}
			}
		}
		if len(names) != len(d.names) {
			return fmt.Errorf("dir %d: index has %d names, slots have %d", ino, len(d.names), len(names))
		}
		for name, s := range names {
			if got, ok := d.names[name]; !ok || got != s {
				return fmt.Errorf("dir %d: %q indexed as %+v (present %v), slots say %+v", ino, name, got, ok, s)
			}
		}
		if dups != d.dups {
			return fmt.Errorf("dir %d: index counts %d hidden duplicates, slots have %d", ino, d.dups, dups)
		}
		if !slices.Equal(free, append([]uint64{}, d.free...)) {
			return fmt.Errorf("dir %d: free slots %v, slots say %v", ino, d.free, free)
		}
	}
	return nil
}

// mustIndexMatch fails the test if any cached directory index disagrees
// with the slots on disk.
func mustIndexMatch(t testing.TB, fs *FS, ctx string) {
	t.Helper()
	if err := fs.checkDirIndex(); err != nil {
		t.Fatalf("%s: directory index: %v", ctx, err)
	}
}

// dirOp is one step of the namespace mill: create, mkdir or remove name in
// parent ("" for the root).
type dirOp struct {
	kind, parent, name string
}

// makeDirOps builds a seeded namespace mill. Files are named n0..n39 and
// directories d0..d2 (made only in the root), so the root outgrows one
// 16-slot directory block, names are reused after removal, and removes hit
// files, full and empty directories and missing names alike.
func makeDirOps(seed int64, n int) []dirOp {
	r := rand.New(rand.NewSource(seed))
	parents := []string{"", "", "", "d0", "d1", "d2"}
	ops := make([]dirOp, 0, n)
	for i := 0; i < n; i++ {
		op := dirOp{parent: parents[r.Intn(len(parents))], name: fmt.Sprintf("n%d", r.Intn(40))}
		switch k := r.Intn(20); {
		case k < 10:
			op.kind = "create"
		case k < 12 && op.parent == "":
			op.kind, op.name = "mkdir", fmt.Sprintf("d%d", r.Intn(3))
		default:
			op.kind = "remove"
			if op.parent == "" && r.Intn(4) == 0 {
				op.name = fmt.Sprintf("d%d", r.Intn(3))
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// applyDirOp runs one namespace step and returns its error.
func applyDirOp(fs *FS, op dirOp) error {
	d := fs.Root()
	if op.parent != "" {
		vn, err := d.VLookup(op.parent, testCred)
		if err != nil {
			return err
		}
		d = vn.(vfs.Dir)
	}
	dw := d.(vfs.DirWriter)
	var err error
	switch op.kind {
	case "create":
		_, err = dw.VCreate(op.name, 0o644, testCred)
	case "mkdir":
		_, err = dw.VMkdir(op.name, 0o755, testCred)
	case "remove":
		err = dw.VRemove(op.name, testCred)
	}
	return err
}

// freeSlots reports how many free slots the index of directory parent (""
// for the root) lists, 0 when it is missing or not indexed yet.
func freeSlots(fs *FS, parent string) int {
	ino := uint32(RootIno)
	if parent != "" {
		vn, err := fs.Root().VLookup(parent, testCred)
		if err != nil {
			return 0
		}
		ino = vn.(*bnode).ino
	}
	if d := fs.dirs[ino]; d != nil {
		return len(d.free)
	}
	return 0
}

// TestDirIndexMatchesColdMount runs a seeded namespace mill twice: once on
// one mount, whose directory indexes stay warm and are updated in place,
// and once through a fresh Mount for every step, whose indexes are rebuilt
// from the slots each time. Both sync after every step, so the journal
// traffic matches too. Every step must fail or succeed alike, and the two
// final images must be byte-for-byte equal: the warm index picks exactly
// the slots a scan of the disk would.
func TestDirIndexMatchesColdMount(t *testing.T) {
	fault.Guard(t)
	ops := makeDirOps(5, 600)

	warm, warmDev := newTestFS(t, 2048)
	var errs []error
	reused, maxRoot := 0, uint64(0)
	for i, op := range ops {
		free := freeSlots(warm, op.parent)
		err := applyDirOp(warm, op)
		if err == nil && op.kind != "remove" && free > 0 {
			reused++
		}
		errs = append(errs, err)
		mustIndexMatch(t, warm, fmt.Sprintf("step %d %+v", i, op))
		if err := warm.Sync(); err != nil {
			t.Fatalf("step %d: sync: %v", i, err)
		}
		if di, _ := warm.readInode(RootIno); di.size > maxRoot {
			maxRoot = di.size
		}
	}
	mustCleanFsck(t, warm, "warm mill")
	if maxRoot <= BlockSize {
		t.Fatalf("root directory never outgrew one block (max size %d)", maxRoot)
	}
	if reused == 0 {
		t.Fatalf("no create reused a freed slot")
	}

	coldDev := NewMemDev(2048)
	if err := Mkfs(coldDev, 0); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	for i, op := range ops {
		cold, err := Mount(coldDev)
		if err != nil {
			t.Fatalf("step %d: mount: %v", i, err)
		}
		if err := applyDirOp(cold, op); !errors.Is(err, errs[i]) {
			t.Fatalf("step %d %+v: cold mount says %v, warm index said %v", i, op, err, errs[i])
		}
		if err := cold.Sync(); err != nil {
			t.Fatalf("step %d: sync: %v", i, err)
		}
	}
	if !bytes.Equal(warmDev.data, coldDev.data) {
		t.Fatalf("warm-index image differs from the cold-mount image")
	}
	t.Logf("%d ops, %d slot reuses, root grew to %d bytes", len(ops), reused, maxRoot)
}

// TestDirLookupAllocFree pins a path step through a warm directory — the
// search-permission VAttr and the VLookup every /disk path component runs —
// at zero allocations, for a directory the size of the benchmark's /disk
// (48 preloaded files plus 8 churn files).
func TestDirLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	fault.Guard(t)
	fs, _ := newTestFS(t, 1024)
	root := fs.Root()
	dw := root.(vfs.DirWriter)
	for i := 0; i < 56; i++ {
		if _, err := dw.VCreate(fmt.Sprintf("f%02d", i), 0o644, testCred); err != nil {
			t.Fatalf("create: %v", err)
		}
	}
	step := func() {
		if _, err := root.VLookup("f37", testCred); err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if a, err := root.VAttr(); err != nil || a.Size != 56 {
			t.Fatalf("attr: size %d, %v", a.Size, err)
		}
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("warm lookup+attr: %.1f allocs, want 0", allocs)
	}
}

// TestTxAllocFree pins the journal's steady state at zero allocations: a
// transaction that modifies one cached block reuses its pre-image buffer,
// entry slice, index map and record scratch block, including across the
// checkpoints the journal forces every few dozen commits.
func TestTxAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	fault.Guard(t)
	fs, _ := newTestFS(t, 1024)
	if err := writeFile(fs.Root(), "f", pattern(1, BlockSize)); err != nil {
		t.Fatalf("write: %v", err)
	}
	vn, err := fs.Root().VLookup("f", testCred)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	di, err := fs.readInode(vn.(*bnode).ino)
	if err != nil {
		t.Fatalf("inode: %v", err)
	}
	z := di.zones[0]
	tx := func() error {
		b, err := fs.c.get(z, true)
		if err != nil {
			return err
		}
		fs.bmod(b)
		b.data[0]++
		fs.c.put(b)
		return nil
	}
	run := func() {
		if err := fs.run(tx); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	for i := 0; i < 64; i++ { // through at least one checkpoint
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("one-block transaction: %.1f allocs, want 0", allocs)
	}
}

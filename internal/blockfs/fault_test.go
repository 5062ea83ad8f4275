package blockfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/vfs"
)

// The EIO matrix: each blockfs fault site is armed in turn against a live
// file system and an operation that must traverse it. The op fails with
// vfs.ErrIO, the transaction rolls back, and both the in-memory state and
// the on-disk image stay exactly as they were — fsck clean, contents intact.
func TestEIOMatrixRollsBack(t *testing.T) {
	cases := []struct {
		site string
		arm  fault.Spec
		op   func(fs *FS) error
	}{
		{"blockfs.journal", fault.Spec{Nth: 1}, func(fs *FS) error {
			return writeFile(fs.Root(), "victim", pattern(50, 2*BlockSize))
		}},
		{"blockfs.journal", fault.Spec{Nth: 3}, func(fs *FS) error {
			// Deeper into the record: an image or commit-block write fails.
			return writeFile(fs.Root(), "victim", pattern(51, 3*BlockSize))
		}},
		{"blockfs.sync", fault.Spec{Nth: 1}, func(fs *FS) error {
			if err := writeFile(fs.Root(), "keep2", pattern(52, BlockSize)); err != nil {
				return err
			}
			return fs.Sync()
		}},
		{"blockfs.write", fault.Spec{Nth: 1}, func(fs *FS) error {
			if err := writeFile(fs.Root(), "keep2", pattern(53, BlockSize)); err != nil {
				return err
			}
			return fs.Sync() // the checkpoint flush hits blockfs.write
		}},
		{"blockfs.read", fault.Spec{Every: 1}, func(fs *FS) error {
			_, err := readFile(fs.Root(), "keep")
			return err
		}},
	}
	for i, tc := range cases {
		t.Run(fmt.Sprintf("%s_%d", tc.site, i), func(t *testing.T) {
			fault.Guard(t)
			fs, dev := newTestFS(t, 1024)
			keep := pattern(42, 3*BlockSize)
			if err := writeFile(fs.Root(), "keep", keep); err != nil {
				t.Fatalf("setup: %v", err)
			}
			mustIndexMatch(t, fs, "after setup")
			if err := fs.Sync(); err != nil {
				t.Fatalf("setup sync: %v", err)
			}
			// Remount so the cache is cold — blockfs.read needs real fills.
			fs, err := Mount(dev)
			if err != nil {
				t.Fatalf("remount: %v", err)
			}

			fault.Default.Lookup(tc.site).Arm(tc.arm)
			opErr := tc.op(fs)
			fault.Default.Lookup(tc.site).Disarm()
			if !errors.Is(opErr, vfs.ErrIO) {
				t.Fatalf("op under %s: %v, want ErrIO", tc.site, opErr)
			}
			mustIndexMatch(t, fs, "after injected EIO")
			mustCleanFsck(t, fs, "after injected EIO")
			got, err := readFile(fs.Root(), "keep")
			if err != nil || !bytes.Equal(got, keep) {
				t.Fatalf("baseline file damaged by failed op: err=%v", err)
			}
			mustIndexMatch(t, fs, "after reading back")
			// And the image itself recovers to a clean state.
			if err := fs.Sync(); err != nil {
				t.Fatalf("final sync: %v", err)
			}
			fs2, err := Mount(dev)
			if err != nil {
				t.Fatalf("final remount: %v", err)
			}
			mustCleanFsck(t, fs2, "after remount")
		})
	}
}

// A seeded probabilistic storm across all four sites at once: operations
// fail unpredictably (but reproducibly), and the invariants must hold
// throughout and after recovery.
func TestEIOProbStorm(t *testing.T) {
	fault.Guard(t)
	fs, dev := newTestFS(t, 1024, MountOptions{CacheSlots: 16})
	for _, name := range []string{"blockfs.read", "blockfs.write", "blockfs.sync", "blockfs.journal"} {
		fault.Default.Lookup(name).Arm(fault.Spec{Prob: 60, Seed: 7, Count: 40})
	}
	model := map[string][]byte{}
	ops := makeOps(1234, 60)
	nerr := 0
	for i, op := range ops {
		if err := doOp(fs, op, model); err != nil {
			if !errors.Is(err, vfs.ErrIO) && !errors.Is(err, vfs.ErrNoSpace) && !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("op %+v: unexpected error %v", op, err)
			}
			nerr++
		}
		mustIndexMatch(t, fs, fmt.Sprintf("op %d %+v", i, op))
	}
	fault.Default.Reset()
	if nerr == 0 {
		t.Fatalf("prob storm injected no faults; the matrix proved nothing")
	}
	t.Logf("prob storm: %d/%d ops failed", nerr, len(ops))
	mustCleanFsck(t, fs, "after prob storm")
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after storm: %v", err)
	}
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatalf("remount after storm: %v", err)
	}
	mustCleanFsck(t, fs2, "after remount")
	got := dumpTree(t, fs2)
	for p, want := range model {
		if p == "sub/" {
			continue
		}
		if !bytes.Equal(got[p], want) {
			t.Fatalf("file %q mismatch after prob storm (%d vs %d bytes)", p, len(got[p]), len(want))
		}
	}
	for p := range got {
		if _, ok := model[p]; !ok {
			t.Fatalf("file %q exists but no successful op produced it", p)
		}
	}
}

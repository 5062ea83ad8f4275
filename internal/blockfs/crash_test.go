package blockfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/vfs"
)

// The crash-recovery storm. A golden run over a CrashDev counts W, the total
// number of device-write ordinals the workload produces (journal records,
// commit blocks, checkpoint flushes — every WriteBlock). Then, for every
// ordinal k in 1..W, the same deterministic workload replays on a fresh image
// with the blockfs.crash site armed to fire on the kth write: the write is
// lost, the device dies, and whatever the workload had not committed is gone.
// The raw image is then remounted (running journal replay) and held to the
// oracle:
//
//   - Fsck reports zero violations, and
//   - the tree equals exactly the model built from the ops that returned
//     success before the crash — no lost committed data, no resurrected
//     uncommitted data.
//
// The equality is exact in both directions because an operation only returns
// success after its commit block reached the device, and a fired write never
// reaches the device — so op-level success and transaction durability
// coincide at every crash point.

// fsOp is one deterministic workload step.
type fsOp struct {
	kind string // "write", "append", "unlink", "sync"
	dir  string // "" for the root, "sub" for the subdirectory
	name string
	size int
	seed int64
}

// makeOps builds the deterministic op list for a seed. Write sizes stay
// within one transaction chunk (maxWriteZones zones), so every write is
// all-or-nothing and the model needs no partial-write cases.
func makeOps(seed int64, n int) []fsOp {
	r := rand.New(rand.NewSource(seed))
	ops := make([]fsOp, 0, n)
	for i := 0; i < n; i++ {
		var op fsOp
		switch k := r.Intn(10); {
		case k < 4:
			op = fsOp{kind: "write", size: 1 + r.Intn(4*BlockSize)}
		case k < 5:
			// Occasionally large enough to need the indirect block.
			op = fsOp{kind: "write", size: (NDirect + 2 + r.Intn(4)) * BlockSize}
		case k < 7:
			op = fsOp{kind: "append", size: 1 + r.Intn(2*BlockSize)}
		case k < 9:
			op = fsOp{kind: "unlink"}
		default:
			op = fsOp{kind: "sync"}
		}
		if r.Intn(3) == 0 {
			op.dir = "sub"
		}
		op.name = fmt.Sprintf("f%d", r.Intn(6))
		op.seed = int64(r.Int63())
		ops = append(ops, op)
	}
	return ops
}

// opDir resolves the directory an op works in, creating "sub" on first use.
// The model marks the directory's existence under the key "sub/" so crash
// replays agree on whether mkdir committed.
func opDir(fs *FS, op fsOp, model map[string][]byte) (vfs.Dir, string, error) {
	root := fs.Root()
	if op.dir == "" {
		return root, "", nil
	}
	if _, ok := model["sub/"]; ok {
		vn, err := root.VLookup("sub", testCred)
		if err != nil {
			return nil, "", err
		}
		return vn.(vfs.Dir), "sub/", nil
	}
	d, err := root.(vfs.DirWriter).VMkdir("sub", 0o755, testCred)
	if err != nil {
		return nil, "", err
	}
	model["sub/"] = nil
	return d, "sub/", nil
}

// doOp applies one op, updating model exactly at each sub-step that
// succeeded. Returning an error means the failing sub-step changed nothing
// durable (transactions roll back; a lost commit write is not durable).
func doOp(fs *FS, op fsOp, model map[string][]byte) error {
	if op.kind == "sync" {
		return fs.Sync()
	}
	d, prefix, err := opDir(fs, op, model)
	if err != nil {
		return err
	}
	path := prefix + op.name
	switch op.kind {
	case "write", "append":
		_, exists := model[path]
		if !exists {
			if _, err := d.(vfs.DirWriter).VCreate(op.name, 0o644, testCred); err != nil {
				return err
			}
			model[path] = []byte{}
		}
		vn, err := d.VLookup(op.name, testCred)
		if err != nil {
			return err
		}
		flags := vfs.OWrite
		off := int64(0)
		if op.kind == "write" {
			flags |= vfs.OTrunc
		} else {
			off = int64(len(model[path]))
		}
		h, err := vn.VOpen(flags, testCred)
		if err != nil {
			return err
		}
		defer h.HClose()
		if op.kind == "write" {
			// The open's truncation transaction committed.
			model[path] = []byte{}
		}
		data := pattern(op.seed, op.size)
		if _, err := h.HWrite(data, off); err != nil {
			return err
		}
		model[path] = append(append([]byte{}, model[path]...), data...)
		return nil
	case "unlink":
		if err := d.(vfs.DirWriter).VRemove(op.name, testCred); err != nil {
			return err
		}
		delete(model, path)
		return nil
	}
	panic("unknown op " + op.kind)
}

// runOps drives ops until the device dies, returning the model of everything
// that committed. Non-crash errors (ENOSPC on a full device) skip the op.
// With checkIndex set, every cached directory index is compared with the
// slots after each op; the check reads without touching the cache order or
// the device's write stream, so the run's write ordinals stay the same.
func runOps(t testing.TB, fs *FS, ops []fsOp, checkIndex bool) map[string][]byte {
	t.Helper()
	model := map[string][]byte{}
	for i, op := range ops {
		err := doOp(fs, op, model)
		if errors.Is(err, ErrCrashed) {
			break
		}
		if err != nil && !errors.Is(err, vfs.ErrNoSpace) && !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("op %+v: unexpected error %v", op, err)
		}
		if checkIndex {
			mustIndexMatch(t, fs, fmt.Sprintf("op %d %+v", i, op))
		}
	}
	return model
}

// checkAgainstModel remounts the raw device and holds it to the oracle.
func checkAgainstModel(t *testing.T, dev Dev, model map[string][]byte, ctx string) {
	t.Helper()
	fs, err := Mount(dev)
	if err != nil {
		t.Fatalf("%s: recovery mount: %v", ctx, err)
	}
	mustCleanFsck(t, fs, ctx)
	got := dumpTree(t, fs)
	for p, want := range model {
		if p == "sub/" {
			if _, err := fs.Root().VLookup("sub", testCred); err != nil {
				t.Fatalf("%s: committed dir sub missing: %v", ctx, err)
			}
			continue
		}
		g, ok := got[p]
		if !ok {
			t.Fatalf("%s: committed file %q lost (have %v)", ctx, p, keysOf(got))
		}
		if !bytes.Equal(g, want) {
			t.Fatalf("%s: file %q: %d bytes on disk, want %d", ctx, p, len(g), len(want))
		}
	}
	for p := range got {
		if _, ok := model[p]; !ok {
			t.Fatalf("%s: uncommitted file %q resurrected", ctx, p)
		}
	}
}

// stormSetup formats a fresh image and mounts it through a CrashDev.
func stormSetup(t *testing.T, nblocks uint32) (*FS, *CrashDev, *MemDev) {
	t.Helper()
	raw := NewMemDev(nblocks)
	if err := Mkfs(raw, 0); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	cd := NewCrashDev(raw)
	fs, err := Mount(cd, MountOptions{CacheSlots: 32})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs, cd, raw
}

func TestCrashStormEveryOrdinal(t *testing.T) {
	seeds := []int64{42, 1991}
	nOps := 40
	if testing.Short() {
		seeds = seeds[:1]
		nOps = 16
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fault.Guard(t)
			ops := makeOps(seed, nOps)

			// Golden run: no crash, count the write ordinals.
			fs, cd, raw := stormSetup(t, 1024)
			golden := runOps(t, fs, ops, true)
			if cd.Dead() {
				t.Fatalf("golden run crashed with no armed site")
			}
			if err := fs.Sync(); err != nil {
				t.Fatalf("golden sync: %v", err)
			}
			w := cd.Writes()
			if w < uint64(nOps) {
				t.Fatalf("golden run made only %d writes", w)
			}
			checkAgainstModel(t, raw, golden, "golden")
			t.Logf("golden: %d ops -> %d write ordinals, %d files", len(ops), w, len(golden))

			// The storm: crash at every ordinal.
			for k := uint64(1); k <= w; k++ {
				fs, cd, raw := stormSetup(t, 1024)
				siteCrash.Arm(fault.Spec{Nth: k})
				model := runOps(t, fs, ops, false)
				siteCrash.Disarm()
				if !cd.Dead() {
					// The workload finished before ordinal k (its own write
					// count shrinks as crashes change op outcomes upstream —
					// only the golden count is exactly w).
					if err := fs.Sync(); err != nil && !errors.Is(err, ErrCrashed) {
						t.Fatalf("k=%d: post-storm sync: %v", k, err)
					}
				}

				// Crash the recovery too: replay on a dying device at a
				// varying ordinal, then recover for real. Replay is
				// idempotent, so the interrupted attempt must not change
				// what the final mount recovers.
				rcd := NewCrashDev(raw)
				siteCrash.Arm(fault.Spec{Nth: 1 + k%5})
				if _, err := Mount(rcd); err != nil && !errors.Is(err, ErrCrashed) {
					t.Fatalf("k=%d: interrupted recovery mount: %v", k, err)
				}
				siteCrash.Disarm()

				checkAgainstModel(t, raw, model, fmt.Sprintf("k=%d", k))
			}

			// Determinism: replaying one storm point yields bit-identical
			// recovered state.
			k := w / 2
			var dumps [2]map[string][]byte
			for i := range dumps {
				fs, _, raw := stormSetup(t, 1024)
				siteCrash.Arm(fault.Spec{Nth: k})
				model := runOps(t, fs, ops, false)
				siteCrash.Disarm()
				checkAgainstModel(t, raw, model, fmt.Sprintf("determinism k=%d run %d", k, i))
				fs2, err := Mount(raw)
				if err != nil {
					t.Fatalf("determinism remount: %v", err)
				}
				dumps[i] = dumpTree(t, fs2)
			}
			if len(dumps[0]) != len(dumps[1]) {
				t.Fatalf("storm point k=%d not deterministic: %d vs %d files", k, len(dumps[0]), len(dumps[1]))
			}
			for p, d := range dumps[0] {
				if !bytes.Equal(d, dumps[1][p]) {
					t.Fatalf("storm point k=%d not deterministic: file %q differs", k, p)
				}
			}
		})
	}
}

// TestCrashDuringCheckpointEveryOrdinal drives the checkpoint path (sync
// after heavy dirty state) through its own storm: the flush ordering and the
// epoch-bump protocol each get killed at every write.
func TestCrashDuringCheckpointEveryOrdinal(t *testing.T) {
	fault.Guard(t)
	build := func() (*FS, *CrashDev, *MemDev, map[string][]byte) {
		fs, cd, raw := stormSetup(t, 1024)
		model := map[string][]byte{}
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("f%d", i)
			data := pattern(int64(i), 3*BlockSize)
			if err := writeFile(fs.Root(), name, data); err != nil {
				t.Fatalf("build %s: %v", name, err)
			}
			model[name] = data
		}
		return fs, cd, raw, model
	}

	// Golden: count the writes one checkpoint makes.
	fs, cd, _, _ := build()
	before := cd.Writes()
	if err := fs.Sync(); err != nil {
		t.Fatalf("golden checkpoint: %v", err)
	}
	n := cd.Writes() - before

	for k := uint64(1); k <= n; k++ {
		fs, _, raw, model := build()
		// Arming resets the plan's hit counter, so ordinal k counts only
		// writes made after this point — the checkpoint's own writes.
		siteCrash.Arm(fault.Spec{Nth: k})
		err := fs.Sync()
		siteCrash.Disarm()
		if err != nil && !errors.Is(err, ErrCrashed) {
			t.Fatalf("k=%d: checkpoint: %v", k, err)
		}
		checkAgainstModel(t, raw, model, fmt.Sprintf("checkpoint k=%d", k))
	}
}

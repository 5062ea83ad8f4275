package blockfs

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/vfs"
)

// fuzzBlocks sizes the fuzzed images: 256 blocks, so one byte of a patch
// record names any block of the device.
const fuzzBlocks = 256

// fuzzBases builds the images FuzzMountWalk mutates: a formatted image
// after a synced churn, and the raw image a crash left mid-workload, whose
// journal still holds committed records for Mount to replay.
func fuzzBases(tb testing.TB) []*MemDev {
	tb.Helper()
	ops := makeOps(3, 30)

	churn := NewMemDev(fuzzBlocks)
	if err := Mkfs(churn, 0); err != nil {
		tb.Fatalf("Mkfs: %v", err)
	}
	fs, err := Mount(churn)
	if err != nil {
		tb.Fatalf("Mount: %v", err)
	}
	runOps(tb, fs, ops, false)
	if err := fs.Sync(); err != nil {
		tb.Fatalf("sync: %v", err)
	}

	crashed := NewMemDev(fuzzBlocks)
	if err := Mkfs(crashed, 0); err != nil {
		tb.Fatalf("Mkfs: %v", err)
	}
	cd := NewCrashDev(crashed)
	if fs, err = Mount(cd); err != nil {
		tb.Fatalf("Mount: %v", err)
	}
	siteCrash.Arm(fault.Spec{Nth: 200})
	runOps(tb, fs, ops, false)
	siteCrash.Disarm()
	if !cd.Dead() {
		tb.Fatalf("crash base: the workload ended before write 200")
	}
	return []*MemDev{churn, crashed}
}

// rangeDev fails the test on any block access off the end of the device: a
// damaged image must come back as an error before blockfs asks for such a
// block.
type rangeDev struct {
	*MemDev
	t *testing.T
}

func (d rangeDev) ReadBlock(no uint32, p []byte) error {
	if no >= fuzzBlocks {
		d.t.Fatalf("read of out-of-range block %d", no)
	}
	return d.MemDev.ReadBlock(no, p)
}

func (d rangeDev) WriteBlock(no uint32, p []byte) error {
	if no >= fuzzBlocks {
		d.t.Fatalf("write of out-of-range block %d", no)
	}
	return d.MemDev.WriteBlock(no, p)
}

// walkTree visits every directory reachable from the root through
// VReadDir, VLookup and VAttr, reading each regular file whole, and
// reports whether any step found the image corrupt. Errors end only the
// step that met them.
func walkTree(fs *FS) (corrupt bool) {
	note := func(err error) {
		if errors.Is(err, ErrCorrupt) || errors.Is(err, vfs.ErrStale) {
			corrupt = true
		}
	}
	seen := map[uint32]bool{}
	buf := make([]byte, 4*BlockSize)
	var walk func(n *bnode)
	walk = func(n *bnode) {
		if seen[n.ino] {
			return
		}
		seen[n.ino] = true
		if _, err := n.VAttr(); err != nil {
			note(err)
			return
		}
		ents, err := n.VReadDir(testCred)
		if err != nil {
			note(err)
			return
		}
		for _, e := range ents {
			vn, err := n.VLookup(e.Name, testCred)
			if err != nil {
				note(err)
				continue
			}
			a, err := vn.VAttr()
			if err != nil {
				note(err)
				continue
			}
			if a.Type == vfs.VDIR {
				walk(vn.(*bnode))
				continue
			}
			h, err := vn.VOpen(vfs.ORead, testCred)
			if err != nil {
				note(err)
				continue
			}
			for off := int64(0); ; {
				k, err := h.HRead(buf, off)
				if err != nil {
					if err != vfs.EOF {
						note(err)
					}
					break
				}
				off += int64(k)
			}
		}
	}
	walk(fs.root)
	return corrupt
}

// FuzzMountWalk mutates a blockfs image, mounts it (replaying its journal),
// walks the whole tree through the directory index, and runs Fsck. Nothing
// may panic or touch a block off the device, and a walk that found the
// image corrupt must be matched by at least one fsck report.
//
// A patch is a sequence of 4-byte records {block, offset lo, offset hi,
// value}, each storing one byte of the image; base picks the image.
func FuzzMountWalk(f *testing.F) {
	fault.Guard(f)
	bases := fuzzBases(f)
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{})
	// The root inode's size, made huge.
	sb, _ := layout(fuzzBlocks, 0)
	f.Add(uint8(0), []byte{byte(sb.itStart), 16 + 7, 0, 0x40})
	f.Fuzz(func(t *testing.T, base uint8, patch []byte) {
		dev := bases[int(base)%len(bases)].Snapshot()
		for ; len(patch) >= 4; patch = patch[4:] {
			off := int(patch[1]) | int(patch[2])<<8
			dev.data[int(patch[0])*BlockSize+off%BlockSize] = patch[3]
		}
		fs, err := Mount(rangeDev{dev, t})
		if err != nil {
			return
		}
		corrupt := walkTree(fs)
		if bad := fs.Fsck(); corrupt && len(bad) == 0 {
			t.Fatalf("the walk found the image corrupt, fsck found it clean")
		}
	})
}

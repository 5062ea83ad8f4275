// Package blockfs is the persistent file system type of the simulated
// system: a block-device file system in the classic minix mould —
// superblock, inode and zone bitmaps, a fixed inode table, directories as
// arrays of fixed-size entries — fronted by an LRU write-back buffer cache
// and made crash-consistent by a physical redo journal (write-ahead block
// images, a commit marker, idempotent replay on mount). Its root mounts
// through vfs alongside memfs and /proc; its I/O choke points are fault
// sites in the Default registry, and a dedicated blockfs.crash site turns
// any device write ordinal into a deterministic power-loss point (CrashDev),
// which is what the crash-recovery storm enumerates.
package blockfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
)

// Geometry. Everything is in BlockSize units; zone numbers stored in inodes
// are absolute block numbers (0 = unallocated), so there is no separate zone
// addressing to translate.
const (
	BlockSize  = 1024
	InodeSize  = 128
	DirentSize = 64
	// NameMax leaves room for the 4-byte ino and a NUL in a 64-byte entry.
	NameMax = 59
	// NDirect direct zones plus one indirect block of 4-byte pointers.
	NDirect      = 10
	ptrsPerBlock = BlockSize / 4
	// MaxFileSize is the deepest a file can go: direct plus single-indirect.
	MaxFileSize     = (NDirect + ptrsPerBlock) * BlockSize
	inodesPerBlock  = BlockSize / InodeSize
	bitsPerBlock    = BlockSize * 8
	direntsPerBlock = BlockSize / DirentSize

	// RootIno is the root directory's inode number; ino 0 is the "no inode"
	// sentinel and its bitmap bit is permanently set.
	RootIno = 1

	sbMagic      = 0x42465331 // "BFS1"
	jMagic       = 0x42464a31 // "BFJ1"
	jDescMagic   = 0x4a445343 // "JDSC"
	jCommitMagic = 0x4a434d54 // "JCMT"

	// maxTxBlocks caps how many distinct blocks one transaction may touch; a
	// descriptor block indexes up to (BlockSize-28)/8 = 124 images, and the
	// write path chunks itself well under that (see maxWriteZones).
	maxTxBlocks = 124
	// journalReserve is the begin-transaction watermark: when fewer journal
	// blocks remain, the transaction is preceded by a checkpoint. It must
	// exceed the largest possible transaction (maxWriteZones data blocks
	// plus a handful of bitmap/inode/indirect blocks plus desc+commit).
	journalReserve = 48
	// maxWriteZones caps the data zones one write transaction touches;
	// larger writes are split into multiple transactions.
	maxWriteZones = 32
)

// File types stored in the inode.
const (
	typeFree = 0
	typeReg  = 1
	typeDir  = 2
)

// ErrCorrupt reports on-disk state the mount or fsck code refuses to trust.
var ErrCorrupt = errors.New("blockfs: corrupt file system")

// super is the decoded superblock: the layout of the five on-disk regions.
//
//	block 0              superblock
//	ibmStart..+ibmBlocks inode bitmap (bit = ino; bit 0 reserved)
//	zbmStart..+zbmBlocks zone bitmap  (bit i = block dataStart+i)
//	itStart..+itBlocks   inode table  (8 inodes per block, ino 1 first)
//	jStart..+jBlocks     journal      (header block, then records)
//	dataStart..nblocks   data zones
type super struct {
	nblocks   uint32
	ninodes   uint32
	ibmStart  uint32
	ibmBlocks uint32
	zbmStart  uint32
	zbmBlocks uint32
	itStart   uint32
	itBlocks  uint32
	jStart    uint32
	jBlocks   uint32
	dataStart uint32
}

func le32(p []byte, off int) uint32     { return binary.LittleEndian.Uint32(p[off:]) }
func le64(p []byte, off int) uint64     { return binary.LittleEndian.Uint64(p[off:]) }
func put32(p []byte, off int, v uint32) { binary.LittleEndian.PutUint32(p[off:], v) }
func put64(p []byte, off int, v uint64) { binary.LittleEndian.PutUint64(p[off:], v) }

func (sb *super) encode() []byte {
	p := make([]byte, BlockSize)
	put32(p, 0, sbMagic)
	for i, v := range []uint32{
		sb.nblocks, sb.ninodes,
		sb.ibmStart, sb.ibmBlocks, sb.zbmStart, sb.zbmBlocks,
		sb.itStart, sb.itBlocks, sb.jStart, sb.jBlocks, sb.dataStart,
	} {
		put32(p, 4+4*i, v)
	}
	return p
}

func decodeSuper(p []byte) (super, error) {
	if le32(p, 0) != sbMagic {
		return super{}, ErrCorrupt
	}
	var f [11]uint32
	for i := range f {
		f[i] = le32(p, 4+4*i)
	}
	sb := super{
		nblocks: f[0], ninodes: f[1],
		ibmStart: f[2], ibmBlocks: f[3], zbmStart: f[4], zbmBlocks: f[5],
		itStart: f[6], itBlocks: f[7], jStart: f[8], jBlocks: f[9], dataStart: f[10],
	}
	// The regions must tile [1, dataStart) in order and leave data room;
	// a superblock that fails this is corrupt, not merely unusual.
	ok := sb.ibmStart == 1 &&
		sb.zbmStart == sb.ibmStart+sb.ibmBlocks &&
		sb.itStart == sb.zbmStart+sb.zbmBlocks &&
		sb.jStart == sb.itStart+sb.itBlocks &&
		sb.dataStart == sb.jStart+sb.jBlocks &&
		sb.dataStart < sb.nblocks &&
		sb.jBlocks >= journalReserve+2 &&
		sb.ninodes >= 1 &&
		sb.itBlocks == (sb.ninodes+inodesPerBlock-1)/inodesPerBlock
	if !ok {
		return super{}, ErrCorrupt
	}
	return sb, nil
}

// layout computes the region layout for a device of nblocks blocks.
func layout(nblocks, ninodes uint32) (super, error) {
	if ninodes == 0 {
		ninodes = nblocks / 8
		if ninodes < 32 {
			ninodes = 32
		}
	}
	sb := super{nblocks: nblocks, ninodes: ninodes}
	sb.ibmStart = 1
	sb.ibmBlocks = (ninodes + 1 + bitsPerBlock - 1) / bitsPerBlock
	sb.itBlocks = (ninodes + inodesPerBlock - 1) / inodesPerBlock
	sb.jBlocks = nblocks / 16
	if sb.jBlocks < 64 {
		sb.jBlocks = 64
	}
	// The zone bitmap's size depends on how many data blocks remain, which
	// depends on its own size; one block of slack per iteration converges.
	sb.zbmBlocks = 1
	for {
		sb.zbmStart = sb.ibmStart + sb.ibmBlocks
		sb.itStart = sb.zbmStart + sb.zbmBlocks
		sb.jStart = sb.itStart + sb.itBlocks
		sb.dataStart = sb.jStart + sb.jBlocks
		if sb.dataStart >= nblocks {
			return super{}, errors.New("blockfs: device too small for layout")
		}
		need := (nblocks - sb.dataStart + bitsPerBlock - 1) / bitsPerBlock
		if need <= sb.zbmBlocks {
			return sb, nil
		}
		sb.zbmBlocks = need
	}
}

// dinode is a decoded on-disk inode.
type dinode struct {
	typ   uint16
	mode  uint16
	nlink uint32
	uid   int32
	gid   int32
	size  uint64
	mtime uint64
	zones [NDirect]uint32
	ind   uint32 // single-indirect block, 0 if none
}

func encodeInode(p []byte, di dinode) {
	for i := range p[:InodeSize] {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[0:], di.typ)
	binary.LittleEndian.PutUint16(p[2:], di.mode)
	put32(p, 4, di.nlink)
	put32(p, 8, uint32(di.uid))
	put32(p, 12, uint32(di.gid))
	put64(p, 16, di.size)
	put64(p, 24, di.mtime)
	for i, z := range di.zones {
		put32(p, 32+4*i, z)
	}
	put32(p, 32+4*NDirect, di.ind)
}

func decodeInode(p []byte) dinode {
	var di dinode
	di.typ = binary.LittleEndian.Uint16(p[0:])
	di.mode = binary.LittleEndian.Uint16(p[2:])
	di.nlink = le32(p, 4)
	di.uid = int32(le32(p, 8))
	di.gid = int32(le32(p, 12))
	di.size = le64(p, 16)
	di.mtime = le64(p, 24)
	for i := range di.zones {
		di.zones[i] = le32(p, 32+4*i)
	}
	di.ind = le32(p, 32+4*NDirect)
	return di
}

// encodeDirent fills one 64-byte slot: ino then the NUL-padded name.
func encodeDirent(p []byte, ino uint32, name string) {
	for i := range p[:DirentSize] {
		p[i] = 0
	}
	put32(p, 0, ino)
	copy(p[4:DirentSize], name)
}

// decodeDirent reads one slot; ino 0 means the slot is free.
func decodeDirent(p []byte) (uint32, string) {
	return le32(p, 0), string(direntName(p))
}

// direntName returns one slot's name bytes, up to the first NUL.
func direntName(p []byte) []byte {
	name := p[4:DirentSize]
	if i := bytes.IndexByte(name, 0); i >= 0 {
		name = name[:i]
	}
	return name
}

// validName rejects names that cannot be stored or would alias path syntax.
func validName(name string) bool {
	if name == "" || name == "." || name == ".." || len(name) > NameMax {
		return false
	}
	return !strings.ContainsAny(name, "/\x00")
}

// IsFormatted reports whether dev carries a blockfs superblock.
func IsFormatted(dev Dev) (bool, error) {
	p := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, p); err != nil {
		return false, err
	}
	return le32(p, 0) == sbMagic, nil
}

// Mkfs writes a fresh file system onto dev: computed layout, cleared
// bitmaps (with ino 0 reserved and the root inode allocated), an empty root
// directory, and an empty journal at epoch 1. ninodes 0 picks a default
// proportional to the device.
func Mkfs(dev Dev, ninodes uint32) error {
	sb, err := layout(dev.Blocks(), ninodes)
	if err != nil {
		return err
	}
	zero := make([]byte, BlockSize)
	for no := uint32(1); no < sb.dataStart; no++ {
		if err := dev.WriteBlock(no, zero); err != nil {
			return err
		}
	}
	if err := dev.WriteBlock(0, sb.encode()); err != nil {
		return err
	}
	// Inode bitmap: ino 0 reserved, root allocated.
	bm := make([]byte, BlockSize)
	bm[0] = 0b11
	if err := dev.WriteBlock(sb.ibmStart, bm); err != nil {
		return err
	}
	// Root inode: an empty directory.
	it := make([]byte, BlockSize)
	encodeInode(it[(RootIno-1)%inodesPerBlock*InodeSize:], dinode{
		typ: typeDir, mode: 0o755, nlink: 1,
	})
	if err := dev.WriteBlock(sb.itStart+(RootIno-1)/inodesPerBlock, it); err != nil {
		return err
	}
	// Journal header: epoch 1, no records.
	hdr := make([]byte, BlockSize)
	put32(hdr, 0, jMagic)
	put64(hdr, 4, 1)
	if err := dev.WriteBlock(sb.jStart, hdr); err != nil {
		return err
	}
	return dev.Sync()
}

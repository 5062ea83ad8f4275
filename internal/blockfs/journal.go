package blockfs

import (
	"hash/crc32"

	"repro/internal/vfs"
)

// The journal is a physical redo log. One transaction is written as:
//
//	descriptor block   jDescMagic, epoch, seq, count, count×{blockno, crc}
//	count image blocks the full post-images of the modified blocks
//	commit block       jCommitMagic, epoch, seq, count, crc-of-descriptor
//
// Records are valid only under the header's current epoch with sequence
// numbers counting 1, 2, ... from the block after the header; replay stops
// at the first record that fails any check (magic, epoch, sequence, count,
// either crc), which is exactly how a torn transaction — crashed before its
// commit block landed — is discarded. A checkpoint flushes every dirty
// buffer home, syncs, and bumps the header epoch, which atomically
// invalidates every record in the journal.
//
// The ordering argument for "no resurrected uncommitted data": a block
// modified by an open transaction is pinned in the buffer cache, so its only
// route to the device before commit is the journal image write itself — and
// an image without a valid commit block is discarded by replay. The ordering
// argument for "no lost committed data": commit returns only after the
// commit block's device write succeeded, every modified buffer stays
// dirty+cached until checkpoint, and a checkpoint invalidates the journal
// only after the flush and sync succeed.

// txEntry is one block the open transaction modified: the buffer, and its
// contents and dirty state before the first modification, for rollback.
type txEntry struct {
	b        *cbuf
	pre      []byte
	preDirty bool
}

// begin opens a transaction, checkpointing first if the journal is near
// full. At begin time every dirty buffer holds only committed data, so the
// checkpoint is always valid here — which is why the space check lives at
// begin and not mid-commit.
func (fs *FS) begin() error {
	if fs.inTx {
		panic("blockfs: nested transaction")
	}
	if fs.sb.jStart+fs.sb.jBlocks-fs.jpos < journalReserve {
		if err := fs.checkpoint(); err != nil {
			return err
		}
	}
	fs.inTx = true
	return nil
}

// bmod registers b as modified by the open transaction: first touch saves
// the pre-image and adds the transaction pin that blocks eviction until
// commit or rollback. Callers mutate b.data after (or between) bmod calls.
// Pre-image buffers come from fs.preFree and go back at endTx/rollback, so
// a steady stream of transactions allocates nothing.
func (fs *FS) bmod(b *cbuf) {
	if !fs.inTx {
		panic("blockfs: bmod outside transaction")
	}
	if _, ok := fs.txIdx[b.no]; !ok {
		var pre []byte
		if n := len(fs.preFree); n > 0 {
			pre = fs.preFree[n-1]
			fs.preFree = fs.preFree[:n-1]
		} else {
			pre = make([]byte, BlockSize)
		}
		copy(pre, b.data)
		fs.txIdx[b.no] = len(fs.tx)
		fs.tx = append(fs.tx, txEntry{b: b, pre: pre, preDirty: b.dirty})
		b.pins++
	}
	b.dirty = true
}

// journalWrite pushes one journal block through the blockfs.journal site.
func (fs *FS) journalWrite(no uint32, p []byte) error {
	if siteJournal.Hit(0) {
		return vfs.ErrIO
	}
	return fs.dev.WriteBlock(no, p)
}

// record fills the scratch block fs.jbuf with a journal record header and
// zeroes the rest of it. The journal header block is the same layout with
// a zero sequence and count.
func (fs *FS) record(magic uint32, epoch, seq uint64, n uint32) []byte {
	p := fs.jbuf
	clear(p)
	put32(p, 0, magic)
	put64(p, 4, epoch)
	put64(p, 12, seq)
	put32(p, 20, n)
	return p
}

// commit writes the transaction's record and makes it durable. On any write
// failure the transaction rolls back completely — in-memory buffers restore
// their pre-images and the journal cursor rewinds, so a failed operation
// leaves no trace in memory or on disk.
func (fs *FS) commit() error {
	if !fs.inTx {
		panic("blockfs: commit outside transaction")
	}
	n := uint32(len(fs.tx))
	if n == 0 {
		fs.endTx()
		return nil
	}
	if n > maxTxBlocks {
		fs.rollback()
		return vfs.ErrNoSpace
	}
	if fs.jpos+n+2 > fs.sb.jStart+fs.sb.jBlocks {
		// The begin-time reserve should make this unreachable; refuse
		// rather than overrun the journal.
		fs.rollback()
		return vfs.ErrNoSpace
	}
	desc := fs.record(jDescMagic, fs.epoch, fs.jseq, n)
	for i, e := range fs.tx {
		put32(desc, 28+8*i, e.b.no)
		put32(desc, 28+8*i+4, crc32.ChecksumIEEE(e.b.data))
	}
	if err := fs.journalWrite(fs.jpos, desc); err != nil {
		fs.rollback()
		return err
	}
	// The commit record reuses the scratch block, so take the descriptor's
	// crc first.
	descCRC := crc32.ChecksumIEEE(desc[28 : 28+8*n])
	for i, e := range fs.tx {
		if err := fs.journalWrite(fs.jpos+1+uint32(i), e.b.data); err != nil {
			fs.rollback()
			return err
		}
	}
	cmt := fs.record(jCommitMagic, fs.epoch, fs.jseq, n)
	put32(cmt, 24, descCRC)
	if err := fs.journalWrite(fs.jpos+n+1, cmt); err != nil {
		fs.rollback()
		return err
	}
	fs.jpos += n + 2
	fs.jseq++
	fs.endTx()
	return nil
}

// endTx releases the transaction pins, keeping the buffers dirty.
func (fs *FS) endTx() {
	for i := range fs.tx {
		fs.tx[i].b.pins--
	}
	fs.closeTx()
}

// rollback restores every modified buffer's pre-image and dirty state and
// rewinds the journal cursor past any partial record.
func (fs *FS) rollback() {
	for i := range fs.tx {
		e := &fs.tx[i]
		copy(e.b.data, e.pre)
		e.b.dirty = e.preDirty
		e.b.pins--
	}
	fs.closeTx()
}

// closeTx returns the pre-image buffers to the free list and empties the
// transaction state for the next begin.
func (fs *FS) closeTx() {
	for i := range fs.tx {
		fs.preFree = append(fs.preFree, fs.tx[i].pre)
		fs.tx[i] = txEntry{}
	}
	fs.tx = fs.tx[:0]
	clear(fs.txIdx)
	fs.inTx = false
}

// run executes fn inside a transaction: rollback on error, commit on
// success (which itself rolls back if the journal write fails).
func (fs *FS) run(fn func() error) error {
	if err := fs.begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		fs.rollback()
		return err
	}
	return fs.commit()
}

// checkpoint makes the cache contents durable and resets the journal:
// flush every dirty (committed) buffer, hit the device barrier, then bump
// the header epoch, invalidating the journal's records. A crash anywhere in
// this sequence is safe: before the header write the old journal still
// replays (idempotently, over already-flushed blocks); after it, the new
// epoch matches no records and the flushed state stands alone.
func (fs *FS) checkpoint() error {
	if err := fs.c.flushAll(); err != nil {
		return err
	}
	if siteSync.Hit(0) {
		return vfs.ErrIO
	}
	if err := fs.dev.Sync(); err != nil {
		return err
	}
	hdr := fs.record(jMagic, fs.epoch+1, 0, 0)
	if err := fs.journalWrite(fs.sb.jStart, hdr); err != nil {
		return err
	}
	fs.epoch++
	fs.jpos = fs.sb.jStart + 1
	fs.jseq = 1
	return nil
}

// replayTx is one decoded committed transaction.
type replayTx struct {
	blocks []uint32
	images [][]byte
}

// replayJournal scans the journal for committed transactions under the
// header epoch and applies them in order, directly to the device. It
// returns the header epoch in force afterward. Applying is idempotent —
// the images are physical block contents — so a crash during a previous
// replay changes nothing. When at least one transaction was applied the
// journal is reset (sync, epoch bump, sync) so the next mount starts clean.
func replayJournal(dev Dev, sb super) (uint64, error) {
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(sb.jStart, buf); err != nil {
		return 0, err
	}
	if le32(buf, 0) != jMagic {
		return 0, ErrCorrupt
	}
	epoch := le64(buf, 4)

	var txs []replayTx
	pos := sb.jStart + 1
	end := sb.jStart + sb.jBlocks
	seq := uint64(1)
scan:
	for pos+2 <= end {
		desc := make([]byte, BlockSize)
		if err := dev.ReadBlock(pos, desc); err != nil {
			return 0, err
		}
		if le32(desc, 0) != jDescMagic || le64(desc, 4) != epoch || le64(desc, 12) != seq {
			break
		}
		n := le32(desc, 20)
		if n == 0 || n > maxTxBlocks || pos+n+2 > end {
			break
		}
		tx := replayTx{}
		for i := uint32(0); i < n; i++ {
			no := le32(desc, 28+8*int(i))
			want := le32(desc, 28+8*int(i)+4)
			img := make([]byte, BlockSize)
			if err := dev.ReadBlock(pos+1+i, img); err != nil {
				return 0, err
			}
			if crc32.ChecksumIEEE(img) != want {
				break scan // torn image: transaction never committed fully
			}
			// Journal records may only describe metadata and data blocks,
			// never the superblock or the journal itself.
			if no == 0 || (no >= sb.jStart && no < sb.dataStart) || no >= sb.nblocks {
				return 0, ErrCorrupt
			}
			tx.blocks = append(tx.blocks, no)
			tx.images = append(tx.images, img)
		}
		if len(tx.blocks) != int(n) {
			break
		}
		cmt := make([]byte, BlockSize)
		if err := dev.ReadBlock(pos+n+1, cmt); err != nil {
			return 0, err
		}
		if le32(cmt, 0) != jCommitMagic || le64(cmt, 4) != epoch || le64(cmt, 12) != seq ||
			le32(cmt, 20) != n || le32(cmt, 24) != crc32.ChecksumIEEE(desc[28:28+8*n]) {
			break
		}
		txs = append(txs, tx)
		pos += n + 2
		seq++
	}
	if len(txs) == 0 {
		return epoch, nil
	}
	for _, tx := range txs {
		for i, no := range tx.blocks {
			if err := dev.WriteBlock(no, tx.images[i]); err != nil {
				return 0, err
			}
		}
	}
	if err := dev.Sync(); err != nil {
		return 0, err
	}
	hdr := make([]byte, BlockSize)
	put32(hdr, 0, jMagic)
	put64(hdr, 4, epoch+1)
	if err := dev.WriteBlock(sb.jStart, hdr); err != nil {
		return 0, err
	}
	if err := dev.Sync(); err != nil {
		return 0, err
	}
	return epoch + 1, nil
}

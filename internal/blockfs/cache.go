package blockfs

import (
	"errors"
	"slices"

	"repro/internal/vfs"
)

// DefaultCacheSlots bounds the buffer cache; eviction starts when every slot
// is occupied. It comfortably exceeds the pin load of the largest
// transaction (maxTxBlocks) plus the handful of transient per-op pins.
const DefaultCacheSlots = 128

// minCacheSlots is the floor newCache enforces: a single write transaction
// pins up to maxWriteZones data buffers plus the inode, bitmap and indirect
// buffers it touches, and the cache must always have room for the largest
// transaction or a legal operation could die on errCacheBusy.
const minCacheSlots = 64

// errCacheBusy reports that every slot is pinned — a programming error, not
// an I/O condition, so it is distinct from the vfs sentinels.
var errCacheBusy = errors.New("blockfs: buffer cache exhausted (all slots pinned)")

// cbuf is one cached block. pins counts reasons the buffer must stay in the
// cache: transient per-operation holds plus one pin per open transaction
// that modified it. A dirty buffer with an uncommitted modification is
// always pinned, which is the mechanism that keeps uncommitted data off the
// device: eviction only ever writes back unpinned buffers, and by then the
// journal has the block's committed image.
type cbuf struct {
	no    uint32
	data  []byte
	dirty bool
	pins  int

	prev, next *cbuf // LRU list; head is most recently used
}

// cache is the LRU write-back buffer cache. It is not internally locked:
// every caller holds FS.mu.
type cache struct {
	dev       Dev
	slots     int
	m         map[uint32]*cbuf
	head      *cbuf
	tail      *cbuf
	flushList []uint32 // flushAll's sorted dirty list, reused
}

func newCache(dev Dev, slots int) *cache {
	if slots <= 0 {
		slots = DefaultCacheSlots
	}
	if slots < minCacheSlots {
		slots = minCacheSlots
	}
	return &cache{dev: dev, slots: slots, m: make(map[uint32]*cbuf, slots)}
}

func (c *cache) unlink(b *cbuf) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		c.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		c.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

func (c *cache) pushFront(b *cbuf) {
	b.next = c.head
	if c.head != nil {
		c.head.prev = b
	}
	c.head = b
	if c.tail == nil {
		c.tail = b
	}
}

// get returns the buffer for block no with one pin added; callers release it
// with put. fill=false skips the device read for blocks about to be fully
// overwritten (freshly allocated zones) and returns a zeroed buffer — which
// is also the zero-fill a grown file's unwritten tail must read as.
func (c *cache) get(no uint32, fill bool) (*cbuf, error) {
	if b, ok := c.m[no]; ok {
		b.pins++
		c.unlink(b)
		c.pushFront(b)
		return b, nil
	}
	if len(c.m) >= c.slots {
		if err := c.evictOne(); err != nil {
			return nil, err
		}
	}
	b := &cbuf{no: no, data: make([]byte, BlockSize)}
	if fill {
		if siteRead.Hit(0) {
			return nil, vfs.ErrIO
		}
		if err := c.dev.ReadBlock(no, b.data); err != nil {
			return nil, err
		}
	}
	b.pins = 1
	c.m[no] = b
	c.pushFront(b)
	return b, nil
}

// put drops one pin.
func (c *cache) put(b *cbuf) { b.pins-- }

// writeBack pushes one dirty buffer home through the blockfs.write site.
func (c *cache) writeBack(b *cbuf) error {
	if siteWrite.Hit(0) {
		return vfs.ErrIO
	}
	if err := c.dev.WriteBlock(b.no, b.data); err != nil {
		return err
	}
	b.dirty = false
	return nil
}

// evictOne frees the least-recently-used unpinned slot, writing it back
// first if dirty. Only committed data can reach this path (uncommitted
// modifications hold a transaction pin).
func (c *cache) evictOne() error {
	for b := c.tail; b != nil; b = b.prev {
		if b.pins > 0 {
			continue
		}
		if b.dirty {
			if err := c.writeBack(b); err != nil {
				return err
			}
		}
		c.unlink(b)
		delete(c.m, b.no)
		return nil
	}
	return errCacheBusy
}

// flushAll writes every dirty buffer home in ascending block order — sorted
// so the device-write ordinal sequence (the crash storm's clock) is a pure
// function of the cache contents, not map iteration order.
func (c *cache) flushAll() error {
	nos := c.flushList[:0]
	for no, b := range c.m {
		if b.dirty {
			nos = append(nos, no)
		}
	}
	slices.Sort(nos)
	c.flushList = nos
	for _, no := range nos {
		if err := c.writeBack(c.m[no]); err != nil {
			return err
		}
	}
	return nil
}

// dirtyCount reports how many buffers await write-back (test visibility).
func (c *cache) dirtyCount() int {
	n := 0
	for _, b := range c.m {
		if b.dirty {
			n++
		}
	}
	return n
}

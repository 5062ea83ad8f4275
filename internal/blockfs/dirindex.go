package blockfs

// The directory index is the in-core name cache between path lookup and the
// directory blocks. Every path step under a blockfs mount runs VAttr (the
// search-permission check) and then VLookup on the parent directory, and
// create and remove each need the name and a free slot; decoding the raw
// 64-byte slots for each of those is what the index replaces.
//
// One dirIndex exists per directory inode touched since mount, in FS.dirs.
// It is built on first use from the raw slots, one cache.get per directory
// block, and changes only after the transaction that changed the slots has
// committed, so a rolled-back operation never reaches it. Remove drops the
// removed inode's own index, since the inode number may be reused. Fsck
// decodes the raw slots itself (dirScan) and never consults the index, so
// it stays an independent oracle for it.

// dirSlot is where one name lives: its inode and its slot's byte offset.
type dirSlot struct {
	ino uint32
	off uint64
}

// dirIndex mirrors one directory's slot array.
type dirIndex struct {
	// names maps each live name to its slot. When two live slots carry the
	// same name (a corrupt image; Fsck reports it), the first one wins,
	// and dups counts the slots it hides.
	names map[string]dirSlot
	dups  int
	// free lists the free slots below the directory's size, ascending.
	free []uint64
}

// dirIdx returns the index of directory ino, whose inode is di, building it
// on first use.
func (fs *FS) dirIdx(ino uint32, di *dinode) (*dirIndex, error) {
	if d, ok := fs.dirs[ino]; ok {
		return d, nil
	}
	if di.size > MaxFileSize {
		return nil, ErrCorrupt
	}
	d := &dirIndex{names: make(map[string]dirSlot)}
	for base := uint64(0); base < di.size; base += BlockSize {
		z, err := fs.zoneAt(di, uint32(base/BlockSize))
		if err != nil {
			return nil, err
		}
		if z == 0 {
			return nil, ErrCorrupt
		}
		b, err := fs.c.get(z, true)
		if err != nil {
			return nil, err
		}
		for off := base; off < base+BlockSize && off < di.size; off += DirentSize {
			slot := b.data[off%BlockSize:]
			child := le32(slot, 0)
			if child == 0 {
				d.free = append(d.free, off)
				continue
			}
			name := direntName(slot)
			if _, dup := d.names[string(name)]; dup {
				d.dups++
				continue
			}
			d.names[string(name)] = dirSlot{child, off}
		}
		fs.c.put(b)
	}
	fs.dirs[ino] = d
	return d, nil
}

// added records a committed entry in slot off. A slot taken from the free
// list is always its first element (addChild reuses the lowest free slot).
func (d *dirIndex) added(name string, s dirSlot) {
	if len(d.free) > 0 && d.free[0] == s.off {
		d.free = d.free[1:]
	}
	d.names[name] = s
}

// removed records the committed clearing of name's slot, keeping the free
// list ascending.
func (d *dirIndex) removed(name string) {
	off := d.names[name].off
	delete(d.names, name)
	i := len(d.free)
	d.free = append(d.free, 0)
	for i > 0 && d.free[i-1] > off {
		d.free[i] = d.free[i-1]
		i--
	}
	d.free[i] = off
}

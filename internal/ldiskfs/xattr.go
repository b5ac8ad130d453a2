package ldiskfs

import (
	"bytes"
	"fmt"
	"sort"
)

// Extended attributes are serialized into the inode's inline EA area
// (bytes [inodeHeaderSize, InodeSize)) or, when they outgrow it, into a
// dedicated overflow block referenced from the inode header — mirroring
// ldiskfs' large-inode in-body EAs with ext4 xattr-block overflow.
//
// Area layout (little-endian):
//
//	u16 count
//	count × { u8 nameLen, name, u16 valueLen, value }

const xattrNameMax = 255

// xattrArea returns the byte slice holding an allocated inode's EAs.
func (im *Image) xattrArea(ino Ino) ([]byte, error) {
	n, err := im.Inode(ino)
	if err != nil {
		return nil, err
	}
	return n.xattrArea()
}

// xattrArea returns the byte slice holding the inode's EAs: the
// overflow block when the record names one, else the inline area.
func (n Inode) xattrArea() ([]byte, error) {
	if n.Type() == TypeFree {
		return nil, ErrNotAllocated
	}
	if blk := le.Uint64(n.rec[inoXattrBlkOff:]); blk != 0 {
		return n.im.blockData(blk)
	}
	return n.rec[inodeHeaderSize:], nil
}

// xattrEntry decodes entry i of an EA area, which starts at off: its
// name and value as slices of area, and the offset of the next entry.
// Every bounds check of the entry format is here.
func xattrEntry(area []byte, off, i int) (name, value []byte, next int, err error) {
	if off+1 > len(area) {
		return nil, nil, 0, fmt.Errorf("ldiskfs: truncated xattr entry %d", i)
	}
	nl := int(area[off])
	off++
	if nl == 0 || off+nl+2 > len(area) {
		return nil, nil, 0, fmt.Errorf("ldiskfs: bad xattr name (entry %d)", i)
	}
	name = area[off : off+nl]
	off += nl
	vl := int(le.Uint16(area[off:]))
	off += 2
	if off+vl > len(area) {
		return nil, nil, 0, fmt.Errorf("ldiskfs: truncated xattr value for %q", name)
	}
	return name, area[off : off+vl : off+vl], off + vl, nil
}

// walkXattrs calls fn with every entry's name and value, both aliasing
// area, in stored order as it reads them. A damaged encoding ends the
// walk with an error, after fn has seen the entries before the damage.
func walkXattrs(area []byte, fn func(name, value []byte)) error {
	if len(area) < 2 {
		return fmt.Errorf("ldiskfs: xattr area too small")
	}
	count := int(le.Uint16(area))
	off := 2
	for i := 0; i < count; i++ {
		name, value, next, err := xattrEntry(area, off, i)
		if err != nil {
			return err
		}
		fn(name, value)
		off = next
	}
	return nil
}

// parseXattrs decodes an EA area into a map of copies (a repeated name
// keeps its last value).
func parseXattrs(area []byte) (map[string][]byte, error) {
	out := make(map[string][]byte)
	err := walkXattrs(area, func(name, value []byte) { out[string(name)] = bytes.Clone(value) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// encodeXattrs serializes EAs deterministically (sorted by name).
func encodeXattrs(xs map[string][]byte) ([]byte, error) {
	names := make([]string, 0, len(xs))
	for n := range xs {
		if n == "" || len(n) > xattrNameMax {
			return nil, fmt.Errorf("ldiskfs: bad xattr name %q", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	size := 2
	for _, n := range names {
		if len(xs[n]) > 0xFFFF {
			return nil, fmt.Errorf("%w: xattr %q (%d bytes)", ErrTooLarge, n, len(xs[n]))
		}
		size += 1 + len(n) + 2 + len(xs[n])
	}
	buf := make([]byte, size)
	le.PutUint16(buf, uint16(len(names)))
	off := 2
	for _, n := range names {
		buf[off] = byte(len(n))
		off++
		copy(buf[off:], n)
		off += len(n)
		le.PutUint16(buf[off:], uint16(len(xs[n])))
		off += 2
		copy(buf[off:], xs[n])
		off += len(xs[n])
	}
	return buf, nil
}

// Xattrs returns all extended attributes of ino.
func (im *Image) Xattrs(ino Ino) (map[string][]byte, error) {
	area, err := im.xattrArea(ino)
	if err != nil {
		return nil, err
	}
	return parseXattrs(area)
}

// WalkXattrs reads the inode's EA area in one pass, calling fn with
// every entry's name and value in stored order as it reads them, both
// aliasing the image until it is next mutated. It fails exactly when
// Xattrs does; a damaged area ends the walk after fn has seen the
// entries before the damage, so a caller that must read a damaged area
// as a whole unreadable one discards what it saw.
func (n Inode) WalkXattrs(fn func(name, value []byte)) error {
	area, err := n.xattrArea()
	if err != nil {
		return err
	}
	return walkXattrs(area, fn)
}

// GetXattr returns one attribute value and whether it exists.
func (im *Image) GetXattr(ino Ino, name string) ([]byte, bool, error) {
	xs, err := im.Xattrs(ino)
	if err != nil {
		return nil, false, err
	}
	v, ok := xs[name]
	return v, ok, nil
}

// SetXattr creates or replaces one attribute.
func (im *Image) SetXattr(ino Ino, name string, value []byte) error {
	return im.updateXattrs(ino, func(xs map[string][]byte) {
		v := make([]byte, len(value))
		copy(v, value)
		xs[name] = v
	})
}

// RemoveXattr deletes one attribute; removing a missing name is an error.
func (im *Image) RemoveXattr(ino Ino, name string) error {
	var missing bool
	err := im.updateXattrs(ino, func(xs map[string][]byte) {
		if _, ok := xs[name]; !ok {
			missing = true
			return
		}
		delete(xs, name)
	})
	if err != nil {
		return err
	}
	if missing {
		return fmt.Errorf("%w: xattr %q", ErrNotExist, name)
	}
	return nil
}

// updateXattrs reads, mutates, and rewrites the EA set, migrating
// between inline and overflow storage as the encoded size dictates.
func (im *Image) updateXattrs(ino Ino, mutate func(map[string][]byte)) error {
	area, err := im.xattrArea(ino)
	if err != nil {
		return err
	}
	rec, _ := im.inode(ino) // xattrArea resolved it already
	xs, err := parseXattrs(area)
	if err != nil {
		// A mutation on top of damaged EAs starts from scratch; repair
		// tooling relies on being able to rewrite corrupted areas.
		xs = make(map[string][]byte)
	}
	mutate(xs)
	enc, err := encodeXattrs(xs)
	if err != nil {
		return err
	}
	inline := rec[inodeHeaderSize:]
	switch {
	case len(enc) <= len(inline):
		if blk := le.Uint64(rec[inoXattrBlkOff:]); blk != 0 {
			im.freeBlock(blk)
			// rec may have been invalidated by... no reallocation
			// happens on free, so rec stays valid.
			le.PutUint64(rec[inoXattrBlkOff:], 0)
		}
		clear(inline)
		copy(inline, enc)
	case len(enc) <= im.geom.BlockSize:
		blk := le.Uint64(rec[inoXattrBlkOff:])
		if blk == 0 {
			blk = im.allocBlock()
			// allocBlock may grow the image and reallocate the buffer;
			// re-resolve the inode record before writing through it.
			rec, _ = im.inode(ino)
			le.PutUint64(rec[inoXattrBlkOff:], blk)
		}
		data, err := im.blockData(blk)
		if err != nil {
			return err
		}
		clear(data)
		copy(data, enc)
		clear(rec[inodeHeaderSize:]) // inline area unused now
	default:
		return fmt.Errorf("%w: encoded xattrs %d bytes > block size %d",
			ErrTooLarge, len(enc), im.geom.BlockSize)
	}
	im.markDirty(ino)
	return nil
}

package ldiskfs

import (
	"fmt"
)

// Dirent is one directory entry. ldiskfs extends classic ext4 entries
// with the child's Lustre FID; the Tag field carries that 16-byte value
// opaquely (package lustre defines its encoding).
//
// On-disk entry layout (packed back to back inside dirent blocks):
//
//	u64 ino | 16-byte tag | u8 type | u8 nameLen | name
//
// A zero ino terminates a block's entry list.
type Dirent struct {
	Ino  Ino
	Type FileType
	Tag  [16]byte
	Name string
}

const direntFixed = 8 + 16 + 1 + 1

func (d Dirent) encodedLen() int { return direntFixed + len(d.Name) }

// forDirentBlocks calls fn with the global block number of every dirent
// block of the inode record, direct pointers first, then the indirect
// block's.
func (im *Image) forDirentBlocks(rec []byte, fn func(blk uint64)) {
	for i := 0; i < numDirect; i++ {
		if blk := le.Uint64(rec[inoDirectOff+8*i:]); blk != 0 {
			fn(blk)
		}
	}
	if ind := le.Uint64(rec[inoIndirectOff:]); ind != 0 {
		data, err := im.blockData(ind)
		if err == nil {
			for off := 0; off+8 <= len(data); off += 8 {
				if blk := le.Uint64(data[off:]); blk != 0 {
					fn(blk)
				}
			}
		}
	}
}

// direntBlocks returns the block numbers forDirentBlocks visits.
func (im *Image) direntBlocks(rec []byte) []uint64 {
	var blocks []uint64
	im.forDirentBlocks(rec, func(blk uint64) { blocks = append(blocks, blk) })
	return blocks
}

// appendDirentBlock allocates a new dirent block and links it into the
// inode (direct pointers first, then the indirect block). It returns the
// new block number. Since allocation may grow the image buffer, the
// caller must re-resolve any held slices afterwards.
func (im *Image) appendDirentBlock(ino Ino) (uint64, error) {
	blk := im.allocBlock()
	rec, err := im.inode(ino)
	if err != nil {
		return 0, err
	}
	for i := 0; i < numDirect; i++ {
		if le.Uint64(rec[inoDirectOff+8*i:]) == 0 {
			le.PutUint64(rec[inoDirectOff+8*i:], blk)
			return blk, nil
		}
	}
	ind := le.Uint64(rec[inoIndirectOff:])
	if ind == 0 {
		ind = im.allocBlock()
		rec, err = im.inode(ino) // re-resolve: buffer may have grown
		if err != nil {
			return 0, err
		}
		le.PutUint64(rec[inoIndirectOff:], ind)
	}
	data, err := im.blockData(ind)
	if err != nil {
		return 0, err
	}
	for off := 0; off+8 <= len(data); off += 8 {
		if le.Uint64(data[off:]) == 0 {
			le.PutUint64(data[off:], blk)
			return blk, nil
		}
	}
	im.freeBlock(blk)
	return 0, fmt.Errorf("%w: directory %d indirect block full", ErrNoSpace, ino)
}

// walkDirentBlock calls fn with the offset of every well-formed entry
// of one block, in order. It returns the offset past the last of them
// and whether the block parsed cleanly to its terminator; a malformed
// entry ends the walk. Every bounds check of the entry format is here.
func walkDirentBlock(data []byte, fn func(off int)) (used int, wellFormed bool) {
	off := 0
	for off+direntFixed <= len(data) && le.Uint64(data[off:]) != 0 {
		nl := int(data[off+25])
		if nl == 0 || off+direntFixed+nl > len(data) {
			return off, false
		}
		fn(off)
		off += direntFixed + nl
	}
	return off, true
}

func errMalformedDirent(off int) error {
	return fmt.Errorf("ldiskfs: malformed dirent at offset %d", off)
}

// parseDirentBlock decodes entries from one block. A malformed entry
// terminates the scan with an error; already-decoded entries are
// returned — a checker wants whatever survives corruption.
func parseDirentBlock(data []byte) ([]Dirent, error) {
	var out []Dirent
	used, ok := walkDirentBlock(data, func(off int) { out = append(out, decodeDirentAt(data, off)) })
	if !ok {
		return out, errMalformedDirent(used)
	}
	return out, nil
}

// encodeDirentsInto packs entries into block data, zero-terminated.
// It panics if they do not fit; callers size-check first.
func encodeDirentsInto(data []byte, ents []Dirent) {
	clear(data)
	off := 0
	for _, d := range ents {
		writeDirentAt(data, off, d)
		off += d.encodedLen()
	}
}

func (im *Image) requireDir(ino Ino) ([]byte, error) {
	rec, err := im.inode(ino)
	if err != nil {
		return nil, err
	}
	switch FileType(le.Uint16(rec[inoModeOff:])) {
	case TypeDir:
		return rec, nil
	case TypeFree:
		return nil, ErrNotAllocated
	default:
		return nil, fmt.Errorf("%w: inode %d", ErrNotDir, ino)
	}
}

// walkDirents calls fn with the block data and offset of every
// well-formed entry of a directory, in block order. Corrupted blocks
// contribute their decodable prefix; the first corruption error
// encountered is returned after the walk.
func (im *Image) walkDirents(dir Ino, fn func(data []byte, off int)) error {
	rec, err := im.requireDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	im.forDirentBlocks(rec, func(blk uint64) {
		data, err := im.blockData(blk)
		if err == nil {
			if used, ok := walkDirentBlock(data, func(off int) { fn(data, off) }); !ok {
				err = errMalformedDirent(used)
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// Dirents lists all entries of a directory, in block order. Corrupted
// blocks contribute their decodable prefix; the first corruption error
// encountered is returned alongside the surviving entries.
func (im *Image) Dirents(dir Ino) ([]Dirent, error) {
	var out []Dirent
	err := im.walkDirents(dir, func(data []byte, off int) { out = append(out, decodeDirentAt(data, off)) })
	return out, err
}

// WalkDirentTags calls fn with the 16-byte tag of every entry Dirents
// would list, in the same order, without materialising them: tag
// aliases the image. It returns the error Dirents would.
func (im *Image) WalkDirentTags(dir Ino, fn func(tag []byte)) error {
	return im.walkDirents(dir, func(data []byte, off int) { fn(data[off+8 : off+24]) })
}

// scanDirentBlock walks a block's entries without materialising them.
// It returns the byte offset past the last well-formed entry, whether
// an entry named `name` was seen (name == "" disables the search, and
// at which offset), and whether the block parsed cleanly to its
// terminator.
func scanDirentBlock(data []byte, name string) (used int, foundAt int, wellFormed bool) {
	foundAt = -1
	used, wellFormed = walkDirentBlock(data, func(off int) {
		if name != "" && string(data[off+direntFixed:off+direntFixed+int(data[off+25])]) == name {
			foundAt = off
		}
	})
	return used, foundAt, wellFormed
}

// decodeDirentAt materialises the single entry starting at off.
func decodeDirentAt(data []byte, off int) Dirent {
	var d Dirent
	d.Ino = Ino(le.Uint64(data[off:]))
	copy(d.Tag[:], data[off+8:off+24])
	d.Type = FileType(data[off+24])
	nl := int(data[off+25])
	d.Name = string(data[off+direntFixed : off+direntFixed+nl])
	return d
}

// LookupDirent finds an entry by name without materialising the whole
// directory (this is the hot path of file creation).
func (im *Image) LookupDirent(dir Ino, name string) (Dirent, bool, error) {
	rec, err := im.requireDir(dir)
	if err != nil {
		return Dirent{}, false, err
	}
	if name == "" {
		return Dirent{}, false, nil
	}
	for _, blk := range im.direntBlocks(rec) {
		data, err := im.blockData(blk)
		if err != nil {
			continue
		}
		if _, at, _ := scanDirentBlock(data, name); at >= 0 {
			return decodeDirentAt(data, at), true, nil
		}
	}
	return Dirent{}, false, nil
}

// AddDirent appends an entry to a directory. Duplicate names error.
// The insert is a single pass: every block is scanned once (duplicate
// check + free-space discovery) and the entry is written in place after
// the block's last entry — no re-encoding of existing entries.
func (im *Image) AddDirent(dir Ino, d Dirent) error {
	if d.Ino == 0 {
		return fmt.Errorf("%w: zero inode in dirent", ErrBadInode)
	}
	if len(d.Name) == 0 || len(d.Name) > 255 {
		return fmt.Errorf("ldiskfs: bad entry name %q", d.Name)
	}
	need := d.encodedLen()
	if need > im.geom.BlockSize {
		return fmt.Errorf("%w: dirent %q", ErrTooLarge, d.Name)
	}
	rec, err := im.requireDir(dir)
	if err != nil {
		return err
	}
	bestBlk := uint64(0)
	bestUsed := 0
	for _, blk := range im.direntBlocks(rec) {
		data, err := im.blockData(blk)
		if err != nil {
			continue
		}
		used, at, ok := scanDirentBlock(data, d.Name)
		if at >= 0 {
			return fmt.Errorf("%w: %q", ErrExist, d.Name)
		}
		// Never append into a corrupted block.
		if ok && bestBlk == 0 && used+need <= im.geom.BlockSize {
			bestBlk, bestUsed = blk, used
		}
	}
	if bestBlk == 0 {
		blk, err := im.appendDirentBlock(dir)
		if err != nil {
			return err
		}
		bestBlk, bestUsed = blk, 0
	}
	data, err := im.blockData(bestBlk)
	if err != nil {
		return err
	}
	writeDirentAt(data, bestUsed, d)
	im.markDirty(dir)
	return im.bumpDirSize(dir)
}

// writeDirentAt serialises one entry at the given block offset.
func writeDirentAt(data []byte, off int, d Dirent) {
	le.PutUint64(data[off:], uint64(d.Ino))
	copy(data[off+8:], d.Tag[:])
	data[off+24] = byte(d.Type)
	data[off+25] = byte(len(d.Name))
	copy(data[off+direntFixed:], d.Name)
}

// bumpDirSize keeps the directory's size field equal to its block span.
func (im *Image) bumpDirSize(dir Ino) error {
	rec, err := im.inode(dir)
	if err != nil {
		return err
	}
	n := len(im.direntBlocks(rec))
	le.PutUint64(rec[inoSizeOff:], uint64(n*im.geom.BlockSize))
	return nil
}

// RemoveDirent deletes the entry with the given name.
func (im *Image) RemoveDirent(dir Ino, name string) error {
	rec, err := im.requireDir(dir)
	if err != nil {
		return err
	}
	for _, blk := range im.direntBlocks(rec) {
		data, err := im.blockData(blk)
		if err != nil {
			continue
		}
		ents, _ := parseDirentBlock(data)
		for i, d := range ents {
			if d.Name == name {
				encodeDirentsInto(data, append(ents[:i:i], ents[i+1:]...))
				im.markDirty(dir)
				return nil
			}
		}
	}
	return fmt.Errorf("%w: %q", ErrNotExist, name)
}

// DirentBlockRanges returns the [start, end) byte ranges of every dirent
// block of a directory, for byte-level fault injection.
func (im *Image) DirentBlockRanges(dir Ino) ([][2]int64, error) {
	rec, err := im.requireDir(dir)
	if err != nil {
		return nil, err
	}
	var out [][2]int64
	for _, blk := range im.direntBlocks(rec) {
		if off, ok := im.blockOffset(blk); ok {
			out = append(out, [2]int64{int64(off), int64(off + im.geom.BlockSize)})
		}
	}
	return out, nil
}

// AllocatedInodes iterates every allocated inode in the image in
// ascending order, calling fn with the inode number and type. This is
// the raw sweep the metadata scanner performs per block group.
func (im *Image) AllocatedInodes(fn func(ino Ino, t FileType) error) error {
	for g := 0; g < im.Groups(); g++ {
		if err := im.AllocatedInodesInGroup(g, fn); err != nil {
			return err
		}
	}
	return nil
}

// AllocatedInodesInGroup iterates the allocated inodes of one block
// group, enabling scanners to shard the inode-table sweep by group.
func (im *Image) AllocatedInodesInGroup(g int, fn func(ino Ino, t FileType) error) error {
	if g < 0 || g >= im.Groups() {
		return fmt.Errorf("ldiskfs: no block group %d", g)
	}
	per := im.geom.InodesPerGroup
	bm := im.inodeBitmap(g)
	for i := 0; i < per; i++ {
		if !bitmapGet(bm, i) {
			continue
		}
		ino := Ino(g*per + i + 1)
		rec, err := im.inode(ino)
		if err != nil {
			return err
		}
		if err := fn(ino, FileType(le.Uint16(rec[inoModeOff:]))); err != nil {
			return err
		}
	}
	return nil
}

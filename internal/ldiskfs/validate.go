package ldiskfs

import (
	"fmt"
)

// Validate is the substrate's own fsck-lite: it checks the *structural*
// invariants of an image — bitmap/superblock agreement, block pointers
// in range, no block referenced twice, dirent inode numbers within the
// image. It says nothing about Lustre-level consistency (that is the
// checkers' job); it exists so tests can assert that no operation in
// this package ever corrupts an image's own bookkeeping.
func (im *Image) Validate() []error {
	var errs []error
	report := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// 1. Superblock counters match the bitmaps.
	var allocInodes, allocBlocks int64
	per := im.geom.InodesPerGroup
	dataPer := im.geom.dataBlocksPerGroup()
	for g := 0; g < im.Groups(); g++ {
		ibm, bbm := im.inodeBitmap(g), im.blockBitmap(g)
		for i := 0; i < per; i++ {
			if bitmapGet(ibm, i) {
				allocInodes++
			}
		}
		for i := 0; i < dataPer; i++ {
			if bitmapGet(bbm, i) {
				allocBlocks++
			}
		}
	}
	if allocInodes != im.InodeCount() {
		report("inode count %d != bitmap population %d", im.InodeCount(), allocInodes)
	}
	if allocBlocks != im.BlockCount() {
		report("block count %d != bitmap population %d", im.BlockCount(), allocBlocks)
	}

	// 2. Allocated inodes have a valid type; free slots are zero-typed
	//    per the bitmap; every referenced block is allocated, in range,
	//    and referenced exactly once.
	blockOwner := make(map[uint64]Ino)
	claimBlock := func(ino Ino, blk uint64, what string) {
		if blk == 0 {
			return
		}
		g, slot, ok := im.blockSlot(blk)
		if !ok {
			report("inode %d: %s block %d out of range", ino, what, blk)
			return
		}
		if !bitmapGet(im.blockBitmap(g), slot) {
			report("inode %d: %s block %d not allocated", ino, what, blk)
		}
		if prev, dup := blockOwner[blk]; dup {
			report("block %d referenced by both inode %d and inode %d", blk, prev, ino)
		}
		blockOwner[blk] = ino
	}
	maxIno := im.MaxInode()
	for g := 0; g < im.Groups(); g++ {
		ibm := im.inodeBitmap(g)
		for i := 0; i < per; i++ {
			ino := Ino(g*per + i + 1)
			rec, err := im.inode(ino)
			if err != nil {
				report("inode %d unreadable: %v", ino, err)
				continue
			}
			typ := FileType(le.Uint16(rec[inoModeOff:]))
			if !bitmapGet(ibm, i) {
				if typ != TypeFree {
					report("inode %d: free per bitmap but typed %v", ino, typ)
				}
				continue
			}
			if typ == TypeFree || typ > TypeSymlink {
				report("inode %d: allocated with invalid type %d", ino, uint16(typ))
			}
			claimBlock(ino, le.Uint64(rec[inoXattrBlkOff:]), "xattr")
			for d := 0; d < numDirect; d++ {
				claimBlock(ino, le.Uint64(rec[inoDirectOff+8*d:]), "dirent")
			}
			if ind := le.Uint64(rec[inoIndirectOff:]); ind != 0 {
				claimBlock(ino, ind, "indirect")
				if data, err := im.blockData(ind); err == nil {
					for off := 0; off+8 <= len(data); off += 8 {
						claimBlock(ino, le.Uint64(data[off:]), "indirect-dirent")
					}
				}
			}
			// 3. Directory entries reference in-range inodes.
			if typ == TypeDir {
				ents, _ := im.Dirents(ino)
				for _, de := range ents {
					if de.Ino == 0 || de.Ino > maxIno {
						report("inode %d: dirent %q references out-of-range inode %d",
							ino, de.Name, de.Ino)
					}
				}
			}
		}
	}

	// 4. No allocated data block is orphaned (allocated but unowned).
	for g := 0; g < im.Groups(); g++ {
		bbm := im.blockBitmap(g)
		for i := 0; i < dataPer; i++ {
			if !bitmapGet(bbm, i) {
				continue
			}
			blk := uint64(g*dataPer + i + 1)
			if _, owned := blockOwner[blk]; !owned {
				report("block %d allocated but referenced by no inode", blk)
			}
		}
	}
	return errs
}

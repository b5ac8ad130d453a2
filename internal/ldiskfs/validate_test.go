package ldiskfs

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func assertValid(t *testing.T, im *Image, ctx string) {
	t.Helper()
	if errs := im.Validate(); len(errs) != 0 {
		t.Fatalf("%s: image invalid: %v", ctx, errs)
	}
}

func TestValidateFreshImage(t *testing.T) {
	assertValid(t, newTestImage(t), "fresh")
}

// TestValidateAfterRandomOps: arbitrary sequences of this package's
// operations must never corrupt an image's structural bookkeeping.
func TestValidateAfterRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		im := MustNew(CompactGeometry())
		var files, dirs []Ino
		for op := 0; op < 120; op++ {
			switch r.Intn(7) {
			case 0, 1: // alloc file
				if ino, err := im.AllocInode(TypeFile); err == nil {
					files = append(files, ino)
				}
			case 2: // alloc dir
				if ino, err := im.AllocInode(TypeDir); err == nil {
					dirs = append(dirs, ino)
				}
			case 3: // set xattr (sometimes forcing overflow)
				if len(files) > 0 {
					ino := files[r.Intn(len(files))]
					val := make([]byte, r.Intn(400))
					im.SetXattr(ino, fmt.Sprintf("k%d", r.Intn(3)), val)
				}
			case 4: // add dirent
				if len(dirs) > 0 && len(files) > 0 {
					dir := dirs[r.Intn(len(dirs))]
					child := files[r.Intn(len(files))]
					im.AddDirent(dir, Dirent{
						Ino: child, Type: TypeFile,
						Name: fmt.Sprintf("e%d", op),
					})
				}
			case 5: // remove dirent
				if len(dirs) > 0 {
					dir := dirs[r.Intn(len(dirs))]
					if ents, _ := im.Dirents(dir); len(ents) > 0 {
						im.RemoveDirent(dir, ents[r.Intn(len(ents))].Name)
					}
				}
			case 6: // free inode
				if len(files) > 2 {
					i := r.Intn(len(files))
					if im.FreeInode(files[i]) == nil {
						files = append(files[:i], files[i+1:]...)
					}
				}
			}
		}
		return len(im.Validate()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCounterDrift(t *testing.T) {
	im := newTestImage(t)
	im.AllocInode(TypeFile)
	// Stomp the superblock inode counter.
	raw := im.Bytes()
	raw[sbInodeCountOff] = 99
	if errs := im.Validate(); len(errs) == 0 {
		t.Fatal("counter drift not detected")
	}
}

func TestValidateDetectsTypeBitmapDisagreement(t *testing.T) {
	im := newTestImage(t)
	ino, _ := im.AllocInode(TypeFile)
	off, _ := im.InodeOffset(ino)
	// Zero the mode while the bitmap still says allocated.
	im.CorruptBytes(off, []byte{0, 0})
	if errs := im.Validate(); len(errs) == 0 {
		t.Fatal("allocated-but-free-typed inode not detected")
	}
}

// TestValidateDetectsBadDirentBlockPointer: a block pointer read from a corrupted record is
// rejected on all 64 bits — one past the image, or with the sign bit of
// its int conversion set — by the walks that follow it (they skip the
// block or report the area unreadable) and named by Validate, and
// freeing the inode does not touch a bitmap outside the image.
func TestValidateDetectsBadDirentBlockPointer(t *testing.T) {
	for _, wild := range []uint64{0xFFFF, 1 << 63, ^uint64(0)} {
		im := newTestImage(t)
		dir, _ := im.AllocInode(TypeDir)
		child, _ := im.AllocInode(TypeFile)
		im.AddDirent(dir, Dirent{Ino: child, Type: TypeFile, Name: "x"})
		off, _ := im.InodeOffset(dir)
		ptr := le.AppendUint64(nil, wild)
		for _, field := range []int{inoDirectOff, inoIndirectOff, inoXattrBlkOff} {
			im.CorruptBytes(off+int64(field), ptr)
		}
		if errs := im.Validate(); len(errs) == 0 {
			t.Fatalf("%#x: wild block pointer not detected", wild)
		}
		if ents, _ := im.Dirents(dir); len(ents) != 0 {
			t.Errorf("%#x: dirents read through a wild pointer: %v", wild, ents)
		}
		if _, err := im.Xattrs(dir); err == nil {
			t.Errorf("%#x: EAs read through a wild overflow pointer", wild)
		}
		if rs, _ := im.DirentBlockRanges(dir); len(rs) != 0 {
			t.Errorf("%#x: block ranges %v for a wild pointer", wild, rs)
		}
		if err := im.FreeInode(dir); err != nil {
			t.Errorf("%#x: FreeInode: %v", wild, err)
		}
	}
}

func TestValidateDetectsDoubleOwnedBlock(t *testing.T) {
	im := newTestImage(t)
	d1, _ := im.AllocInode(TypeDir)
	d2, _ := im.AllocInode(TypeDir)
	c, _ := im.AllocInode(TypeFile)
	im.AddDirent(d1, Dirent{Ino: c, Type: TypeFile, Name: "a"})
	im.AddDirent(d2, Dirent{Ino: c, Type: TypeFile, Name: "b"})
	// Make d2's first dirent block alias d1's.
	off1, _ := im.InodeOffset(d1)
	off2, _ := im.InodeOffset(d2)
	blk := make([]byte, 8)
	copy(blk, im.Bytes()[off1+int64(inoDirectOff):off1+int64(inoDirectOff)+8])
	im.CorruptBytes(off2+int64(inoDirectOff), blk)
	if errs := im.Validate(); len(errs) == 0 {
		t.Fatal("doubly-owned block not detected")
	}
}

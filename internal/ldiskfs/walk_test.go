package ldiskfs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// walkedXattrs collects what WalkXattrs yields, as copies, in order.
func walkedXattrs(im *Image, ino Ino) (names []string, values [][]byte, err error) {
	err = im.WalkXattrs(ino, func(name, value []byte) {
		names = append(names, string(name))
		values = append(values, bytes.Clone(value))
	})
	return names, values, err
}

// TestWalkXattrsMatchesXattrs: the in-place walk yields exactly the
// map's entries — inline and from an overflow block — as slices of the
// image, and after a repeated name the map holds the walk's last value.
func TestWalkXattrsMatchesXattrs(t *testing.T) {
	im := newTestImage(t)
	ino, _ := im.AllocInode(TypeFile)
	for _, big := range []int{0, 600} {
		im.SetXattr(ino, "lma", []byte{1, 2, 3})
		im.SetXattr(ino, "empty", nil)
		im.SetXattr(ino, "lov", bytes.Repeat([]byte{9}, 20+big))
		want, err := im.Xattrs(ino)
		if err != nil {
			t.Fatal(err)
		}
		names, values, err := walkedXattrs(im, ino)
		if err != nil || len(names) != len(want) {
			t.Fatalf("walk yields %v, %v; map has %d entries", names, err, len(want))
		}
		for i, n := range names {
			if !bytes.Equal(values[i], want[n]) {
				t.Errorf("%q: walk yields %v, map has %v", n, values[i], want[n])
			}
		}
	}
	// No copy: a value handed to fn is the image's own bytes.
	var lma []byte
	im.WalkXattrs(ino, func(name, value []byte) {
		if string(name) == "lma" {
			lma = value
		}
	})
	lma[0] = 77
	if v, _, _ := im.GetXattr(ino, "lma"); v[0] != 77 {
		t.Error("WalkXattrs handed out a copy, not the image's bytes")
	}

	// A repeated name: hand-encode {a=1, a=2} into a fresh inode's area.
	dup, _ := im.AllocInode(TypeFile)
	rec, _ := im.inode(dup)
	copy(rec[inodeHeaderSize:], []byte{2, 0, 1, 'a', 1, 0, 1, 1, 'a', 1, 0, 2})
	xs, err := im.Xattrs(dup)
	_, values, werr := walkedXattrs(im, dup)
	if err != nil || werr != nil || len(values) != 2 || !bytes.Equal(xs["a"], values[1]) {
		t.Errorf("repeated name: map %v (%v), walk %v (%v)", xs, err, values, werr)
	}
}

// TestWalkXattrsAllOrNothing: an area damaged at any entry fails the
// walk with the error Xattrs reports, before fn has seen even the
// entries that precede the damage.
func TestWalkXattrsAllOrNothing(t *testing.T) {
	im := newTestImage(t)
	ino, _ := im.AllocInode(TypeFile)
	im.SetXattr(ino, "lma", []byte{1, 2, 3})
	im.SetXattr(ino, "lov", []byte{4, 5, 6, 7})
	rec, _ := im.inode(ino)
	area := rec[inodeHeaderSize:]
	pristine := bytes.Clone(area)
	// count too high; second name length zero; second value overlong.
	second := 2 + 1 + 3 + 2 + 3
	for _, damage := range []func(){
		func() { area[0] = 3; area[second+6+4] = 0xFF }, // a third entry that runs off the area
		func() { area[second] = 0 },
		func() { area[second+4], area[second+5] = 0xFF, 0xFF },
		func() { le.PutUint64(rec[inoXattrBlkOff:], 1<<40) },
	} {
		copy(area, pristine)
		le.PutUint64(rec[inoXattrBlkOff:], 0)
		damage()
		_, want := im.Xattrs(ino)
		names, _, err := walkedXattrs(im, ino)
		if want == nil || err == nil || err.Error() != want.Error() || len(names) != 0 {
			t.Errorf("Xattrs: %v; WalkXattrs: %v after yielding %v", want, err, names)
		}
	}
}

// TestWalkDirentTagsMatchesDirents: the tag walk lists the tags of
// exactly the entries Dirents materialises, across direct and indirect
// blocks, and reports the same damage with the same survivors.
func TestWalkDirentTagsMatchesDirents(t *testing.T) {
	im := newTestImage(t)
	dir, _ := im.AllocInode(TypeDir)
	for i := 0; i < 400; i++ { // 1 KiB blocks: spills into the indirect block
		child, _ := im.AllocInode(TypeFile)
		im.AddDirent(dir, Dirent{Ino: child, Type: TypeFile, Tag: mkTag(byte(i)), Name: fmt.Sprintf("file-%04d", i)})
	}
	check := func(label string, wantErr bool) {
		t.Helper()
		ents, want := im.Dirents(dir)
		var tags [][16]byte
		err := im.WalkDirentTags(dir, func(tag []byte) { tags = append(tags, [16]byte(tag)) })
		if (want != nil) != wantErr || fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%s: Dirents: %v; WalkDirentTags: %v", label, want, err)
		}
		wantTags := make([][16]byte, len(ents))
		for i, e := range ents {
			wantTags[i] = e.Tag
		}
		if !reflect.DeepEqual(tags, wantTags) {
			t.Fatalf("%s: walk yields %d tags, Dirents %d entries, or they differ", label, len(tags), len(ents))
		}
	}
	rec, _ := im.inode(dir)
	if le.Uint64(rec[inoIndirectOff:]) == 0 {
		t.Fatal("directory never reached its indirect block")
	}
	check("intact", false)
	blocks := im.direntBlocks(rec)
	data, _ := im.blockData(blocks[3])
	data[direntFixed+9+25] = 0 // second entry of the fourth block: nameLen 0
	check("malformed entry", true)
	le.PutUint64(rec[inoDirectOff+8:], 1<<50) // second block pointer out of range
	check("malformed entry and wild pointer", true)
	if err := im.WalkDirentTags(blockIno(t, im), func([]byte) {}); err == nil {
		t.Error("tag walk of a non-directory succeeded")
	}
}

func blockIno(t *testing.T, im *Image) Ino {
	t.Helper()
	ino, err := im.AllocInode(TypeFile)
	if err != nil {
		t.Fatal(err)
	}
	return ino
}

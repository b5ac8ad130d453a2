package lustre

import (
	"encoding/binary"
	"fmt"
)

var le = binary.LittleEndian

// Extended-attribute names used on server-local inodes, mirroring the
// trusted.* EAs of real Lustre (paper Fig. 1).
const (
	// XattrLMA holds the object's own FID (Lustre Metadata Attributes).
	XattrLMA = "lma"
	// XattrLink holds the LinkEA: parent FID + name, one entry per hard
	// link. Present on MDT files and directories.
	XattrLink = "link"
	// XattrLOV holds the LOVEA layout: the file's stripe objects.
	// Present on MDT regular files.
	XattrLOV = "lov"
	// XattrFilterFID holds the filter-fid of an OST object: the owning
	// MDT file's FID and the object's stripe index.
	XattrFilterFID = "fid"
)

// LOVMagic guards LOVEA decoding (Lustre's LOV_MAGIC_V1).
const LOVMagic uint32 = 0x0BD10BD0

// LinkEntry is one LinkEA record: this object is named Name inside the
// directory Parent.
type LinkEntry struct {
	Parent FID
	Name   string
}

// EncodeLinkEA serializes LinkEA entries:
//
//	u16 count | count × { 16-byte parent FID, u16 nameLen, name }
func EncodeLinkEA(entries []LinkEntry) ([]byte, error) {
	size := 2
	for _, e := range entries {
		if len(e.Name) > 0xFFFF {
			return nil, fmt.Errorf("lustre: link name too long (%d)", len(e.Name))
		}
		size += 16 + 2 + len(e.Name)
	}
	buf := make([]byte, size)
	le.PutUint16(buf, uint16(len(entries)))
	off := 2
	for _, e := range entries {
		fb := e.Parent.Bytes()
		copy(buf[off:], fb[:])
		off += 16
		le.PutUint16(buf[off:], uint16(len(e.Name)))
		off += 2
		copy(buf[off:], e.Name)
		off += len(e.Name)
	}
	return buf, nil
}

// linkEntry decodes LinkEA entry i, which starts at off: the parent
// FID, the name as a slice of b, and the offset of the next entry.
func linkEntry(b []byte, off, i int) (parent FID, name []byte, next int, err error) {
	if off+18 > len(b) {
		return FID{}, nil, 0, fmt.Errorf("lustre: truncated linkEA entry %d", i)
	}
	nl := int(le.Uint16(b[off+16:]))
	if off+18+nl > len(b) {
		return FID{}, nil, 0, fmt.Errorf("lustre: truncated linkEA name (entry %d)", i)
	}
	return FIDFromBytes(b[off : off+16]), b[off+18 : off+18+nl], off + 18 + nl, nil
}

// WalkLinkEA validates a LinkEA value as a whole, then calls fn with
// every entry's parent FID and name (aliasing b) in stored order. A
// damaged value yields an error and fn sees none of its entries.
func WalkLinkEA(b []byte, fn func(parent FID, name []byte)) error {
	if len(b) < 2 {
		return fmt.Errorf("lustre: linkEA too short")
	}
	count := int(le.Uint16(b))
	for _, yield := range [2]bool{false, true} {
		off := 2
		for i := 0; i < count; i++ {
			parent, name, next, err := linkEntry(b, off, i)
			if err != nil {
				return err
			}
			if yield {
				fn(parent, name)
			}
			off = next
		}
	}
	return nil
}

// DecodeLinkEA parses a LinkEA value.
func DecodeLinkEA(b []byte) ([]LinkEntry, error) {
	out := []LinkEntry{}
	err := WalkLinkEA(b, func(parent FID, name []byte) {
		out = append(out, LinkEntry{Parent: parent, Name: string(name)})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StripeEntry is one LOVEA record: stripe index i of the file lives in
// object ObjectFID on OST OSTIndex.
type StripeEntry struct {
	OSTIndex  uint32
	ObjectFID FID
}

// Layout is the decoded LOVEA of a file.
type Layout struct {
	StripeSize uint32 // bytes per stripe chunk
	Stripes    []StripeEntry
}

// EncodeLOVEA serializes a layout:
//
//	u32 magic | u32 stripeSize | u16 stripeCount |
//	count × { u32 ostIndex, 16-byte object FID }
func EncodeLOVEA(l Layout) ([]byte, error) {
	if len(l.Stripes) > 0xFFFF {
		return nil, fmt.Errorf("lustre: too many stripes (%d)", len(l.Stripes))
	}
	buf := make([]byte, 10+20*len(l.Stripes))
	le.PutUint32(buf, LOVMagic)
	le.PutUint32(buf[4:], l.StripeSize)
	le.PutUint16(buf[8:], uint16(len(l.Stripes)))
	off := 10
	for _, s := range l.Stripes {
		le.PutUint32(buf[off:], s.OSTIndex)
		fb := s.ObjectFID.Bytes()
		copy(buf[off+4:], fb[:])
		off += 20
	}
	return buf, nil
}

// WalkLOVEA validates a LOVEA value, then calls fn with every stripe's
// OST index and object FID in stripe order, and returns the stripe
// size. A wrong magic is an error: that is precisely how a corrupted
// layout EA manifests to the scanner.
func WalkLOVEA(b []byte, fn func(ostIndex uint32, object FID)) (stripeSize uint32, err error) {
	if len(b) < 10 {
		return 0, fmt.Errorf("lustre: LOVEA too short")
	}
	if le.Uint32(b) != LOVMagic {
		return 0, fmt.Errorf("lustre: bad LOVEA magic 0x%x", le.Uint32(b))
	}
	stripeSize = le.Uint32(b[4:])
	count := int(le.Uint16(b[8:]))
	if len(b) < 10+20*count {
		return stripeSize, fmt.Errorf("lustre: truncated LOVEA (%d stripes)", count)
	}
	for off := 10; off < 10+20*count; off += 20 {
		fn(le.Uint32(b[off:]), FIDFromBytes(b[off+4:off+20]))
	}
	return stripeSize, nil
}

// DecodeLOVEA parses a LOVEA value.
func DecodeLOVEA(b []byte) (Layout, error) {
	var l Layout
	var err error
	l.StripeSize, err = WalkLOVEA(b, func(ost uint32, object FID) {
		l.Stripes = append(l.Stripes, StripeEntry{OSTIndex: ost, ObjectFID: object})
	})
	return l, err
}

// FilterFID is the decoded filter-fid EA of an OST object.
type FilterFID struct {
	ParentFID   FID    // owning MDT file
	StripeIndex uint32 // which stripe of that file this object is
}

// EncodeFilterFID serializes a filter-fid: 16-byte FID | u32 index.
func EncodeFilterFID(f FilterFID) []byte {
	buf := make([]byte, 20)
	fb := f.ParentFID.Bytes()
	copy(buf, fb[:])
	le.PutUint32(buf[16:], f.StripeIndex)
	return buf
}

// DecodeFilterFID parses a filter-fid value.
func DecodeFilterFID(b []byte) (FilterFID, error) {
	if len(b) < 20 {
		return FilterFID{}, fmt.Errorf("lustre: filter-fid too short")
	}
	return FilterFID{
		ParentFID:   FIDFromBytes(b[:16]),
		StripeIndex: le.Uint32(b[16:]),
	}, nil
}

// EncodeLMA / DecodeLMA wrap the 16-byte self-FID attribute.
func EncodeLMA(f FID) []byte {
	b := f.Bytes()
	return b[:]
}

// DecodeLMA parses an LMA value.
func DecodeLMA(b []byte) (FID, error) {
	if len(b) < 16 {
		return FID{}, fmt.Errorf("lustre: LMA too short")
	}
	return FIDFromBytes(b), nil
}

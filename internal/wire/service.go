package wire

import (
	"fmt"
	"math"
	"net"
	"sync"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// FIDInfo is the answer to a StatFID RPC: everything a rule-based
// checker cross-checks about one object.
type FIDInfo struct {
	Exists bool
	Type   ldiskfs.FileType
	Size   uint64
	// Xattrs carries the object's raw EAs (LMA/LinkEA/LOVEA/filter-fid);
	// the querying side decodes whichever it needs.
	Xattrs map[string][]byte
}

// encodeFIDInfo: u8 exists | u16 type | u64 size | u16 n | n × {u8 nameLen,
// name, u32 valLen, val}. Field widths are checked before encoding — a
// name, value, or xattr count that does not fit its width is rejected
// rather than silently truncated, keeping the codec bijective (a frame
// that encodes always decodes back to the same FIDInfo).
func encodeFIDInfo(in FIDInfo) ([]byte, error) {
	if len(in.Xattrs) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: %d xattrs exceed the u16 count field", len(in.Xattrs))
	}
	buf := make([]byte, 0, 64)
	if in.Exists {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = le.AppendUint16(buf, uint16(in.Type))
	buf = le.AppendUint64(buf, in.Size)
	buf = le.AppendUint16(buf, uint16(len(in.Xattrs)))
	// deterministic order is unnecessary on the wire; iterate freely
	for name, val := range in.Xattrs {
		if len(name) > math.MaxUint8 {
			return nil, fmt.Errorf("wire: xattr name %.16q… is %d bytes, exceeds the u8 length field", name, len(name))
		}
		if uint64(len(val)) > math.MaxUint32 {
			return nil, fmt.Errorf("wire: xattr %q value is %d bytes, exceeds the u32 length field", name, len(val))
		}
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
		buf = le.AppendUint32(buf, uint32(len(val)))
		buf = append(buf, val...)
	}
	return buf, nil
}

func decodeFIDInfo(b []byte) (FIDInfo, error) {
	d := bincodec.NewReader(&fidInfoFormat, b)
	var in FIDInfo
	in.Exists = d.U8() == 1
	in.Type = ldiskfs.FileType(d.U16())
	in.Size = d.U64()
	// Minimum xattr record: empty name and value, u8 + u32 lengths.
	n := d.Count(uint64(d.U16()), 5)
	if n > 0 {
		in.Xattrs = make(map[string][]byte, n)
	}
	for i := 0; i < n; i++ {
		name := string(d.Bytes(int(d.U8())))
		val := d.Bytes(int(d.U32()))
		if d.Err() != nil {
			break
		}
		in.Xattrs[name] = append(make([]byte, 0, len(val)), val...)
	}
	return in, d.Err()
}

// ObjectService answers StatFID RPCs for one server image. It builds a
// FID→inode object index up front, playing the role of Lustre's OI
// (object index) files.
type ObjectService struct {
	img   *ldiskfs.Image
	index map[lustre.FID]ldiskfs.Ino

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewObjectService indexes the image and returns a service ready to
// Serve.
func NewObjectService(img *ldiskfs.Image) (*ObjectService, error) {
	s := &ObjectService{img: img, index: make(map[lustre.FID]ldiskfs.Ino)}
	err := img.AllocatedInodes(func(ino ldiskfs.Ino, _ ldiskfs.FileType) error {
		raw, ok, err := img.GetXattr(ino, lustre.XattrLMA)
		if err != nil || !ok {
			return nil // unidentifiable inode: not reachable by FID
		}
		fid, err := lustre.DecodeLMA(raw)
		if err == nil && !fid.IsZero() {
			if _, dup := s.index[fid]; !dup {
				s.index[fid] = ino
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Stat resolves one FID locally (the in-process fast path used when the
// checker runs without TCP).
func (s *ObjectService) Stat(f lustre.FID) FIDInfo {
	ino, ok := s.index[f]
	if !ok {
		return FIDInfo{}
	}
	info := FIDInfo{Exists: true}
	if t, err := s.img.Type(ino); err == nil {
		info.Type = t
	}
	if sz, err := s.img.Size(ino); err == nil {
		info.Size = sz
	}
	if xs, err := s.img.Xattrs(ino); err == nil {
		info.Xattrs = xs
	}
	return info
}

// Listen starts accepting StatFID connections on a fresh localhost port
// and returns the address.
func (s *ObjectService) Listen() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the listener, force-closes any connection still open
// (a stuck or dead client must not hang shutdown), and waits for the
// in-flight handlers.
func (s *ObjectService) Close() {
	s.mu.Lock()
	if s.ln != nil && !s.closed {
		s.closed = true
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *ObjectService) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *ObjectService) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *ObjectService) handle(conn net.Conn) {
	defer conn.Close()
	if !s.track(conn) {
		return
	}
	defer s.untrack(conn)
	for {
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			return
		}
		switch typ {
		case MsgStatFID:
			if len(payload) != 16 {
				_ = WriteError(conn, fmt.Errorf("bad StatFID payload"))
				continue
			}
			rec, err := encodeFIDInfo(s.Stat(lustre.FIDFromBytes(payload)))
			if err != nil {
				_ = WriteError(conn, err)
				continue
			}
			if err := WriteFrame(conn, MsgFIDInfo, rec); err != nil {
				return
			}
		case MsgStatBatch:
			fids, err := decodeStatBatch(payload)
			if err != nil {
				_ = WriteError(conn, err)
				continue
			}
			var out []byte
			var encErr error
			for _, f := range fids {
				rec, err := encodeFIDInfo(s.Stat(f))
				if err != nil {
					encErr = err
					break
				}
				out = le.AppendUint32(out, uint32(len(rec)))
				out = append(out, rec...)
			}
			if encErr != nil {
				_ = WriteError(conn, encErr)
				continue
			}
			if err := WriteFrame(conn, MsgFIDInfoBatch, out); err != nil {
				return
			}
		case MsgBye:
			return
		default:
			_ = WriteError(conn, fmt.Errorf("unexpected message %d", typ))
		}
	}
}

// Client is a StatFID RPC client holding one connection.
type Client struct {
	conn net.Conn
}

// Dial connects to an ObjectService.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Stat performs one synchronous StatFID round trip — deliberately one
// request per object, like LFSCK's per-inode pipeline.
func (c *Client) Stat(f lustre.FID) (FIDInfo, error) {
	fb := f.Bytes()
	if err := WriteFrame(c.conn, MsgStatFID, fb[:]); err != nil {
		return FIDInfo{}, err
	}
	typ, payload, err := ReadFrame(c.conn)
	if err != nil {
		return FIDInfo{}, err
	}
	if err := AsError(typ, payload); err != nil {
		return FIDInfo{}, err
	}
	if typ != MsgFIDInfo {
		return FIDInfo{}, fmt.Errorf("wire: unexpected reply %d", typ)
	}
	return decodeFIDInfo(payload)
}

// StatBatch resolves many FIDs in one round trip — the batched-RPC
// improvement a modernised LFSCK could adopt (cf. Dai et al., MSST'19);
// kept alongside the per-object Stat so both designs can be compared.
func (c *Client) StatBatch(fids []lustre.FID) ([]FIDInfo, error) {
	payload := le.AppendUint32(nil, uint32(len(fids)))
	for _, f := range fids {
		fb := f.Bytes()
		payload = append(payload, fb[:]...)
	}
	if err := WriteFrame(c.conn, MsgStatBatch, payload); err != nil {
		return nil, err
	}
	typ, body, err := ReadFrame(c.conn)
	if err != nil {
		return nil, err
	}
	if err := AsError(typ, body); err != nil {
		return nil, err
	}
	if typ != MsgFIDInfoBatch {
		return nil, fmt.Errorf("wire: unexpected reply %d", typ)
	}
	out := make([]FIDInfo, 0, len(fids))
	d := bincodec.NewReader(&statBatchFormat, body)
	for i := range fids {
		rec := d.Bytes(int(d.U32()))
		if d.Err() != nil {
			return nil, fmt.Errorf("wire: truncated batch reply at record %d", i)
		}
		info, err := decodeFIDInfo(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}

// decodeStatBatch parses a MsgStatBatch payload: a count and exactly
// that many FIDs.
func decodeStatBatch(b []byte) ([]lustre.FID, error) {
	d := bincodec.NewReader(&statBatchFormat, b)
	fids := make([]lustre.FID, d.Count(uint64(d.U32()), 16))
	for i := range fids {
		fids[i] = fid(d)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return fids, nil
}

// Close ends the session.
func (c *Client) Close() error {
	_ = WriteFrame(c.conn, MsgBye, nil)
	return c.conn.Close()
}

// Collector receives partial graphs over TCP (the MDS-side aggregator
// endpoint).
type Collector struct {
	ln net.Listener
	// metrics, when set via Observe, feeds the run-wide transfer
	// counters as chunk frames are decoded.
	metrics *Metrics
}

// Observe attaches run-wide wire metrics to the collector: every
// decoded chunk frame and every stream failure is counted into m in
// addition to the per-collect CollectResult tallies. Call before
// collection starts.
func (c *Collector) Observe(m *Metrics) { c.metrics = m }

// NewCollector listens on a fresh localhost port.
func NewCollector() (*Collector, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return &Collector{ln: ln}, ln.Addr().String(), nil
}

// Close stops the collector's listener.
func (c *Collector) Close() { c.ln.Close() }

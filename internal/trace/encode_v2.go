package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"
)

// The on-disk trace format is a small binary container so that reference
// streams can be captured once and replayed against many cache
// configurations, mirroring how the paper reuses Pin traces. It stores the
// reference stream as two contiguous little-endian uint64 columns, so a
// reader can replay a memory-mapped file without decoding or copying it:
//
//	header:  magic "DVF2" | uint16 version=2 | uint16 reserved |
//	         uint32 region count | uint32 reserved | uint64 record count
//	regions: per region -> uint32 id | uint64 base | uint64 size |
//	         uint16 name length | name bytes
//	padding: zero bytes to the next 8-byte boundary
//	addrs:   record count * uint64   (simulated virtual addresses)
//	metas:   record count * uint64   (packed size/owner/write, see PackMeta)
//
// All integers are little-endian. The meta word reserves 31 bits for the
// reference size (MaxRefSize); WriterV2 surfaces larger sizes as a
// sticky error instead of truncating.

const (
	traceMagicV2   = "DVF2"
	traceVersionV2 = 2
	v2HeaderSize   = 24
)

// Meta-word layout: bit 0 is the write flag, bits 1..31 hold the reference
// size (31 bits), bits 32..63 hold the owner as a uint32 bit pattern. The
// size domain is capped at 2^31-1 bytes per reference — every producer in
// this repository emits element-sized references of at most a few dozen
// bytes, and a single reference touching 2 GiB would be a bug upstream —
// so PackMeta panics rather than silently truncating.
const (
	metaWriteBit  = 1
	metaSizeShift = 1
	metaSizeBits  = 31
	// MaxRefSize is the largest reference size a meta word (and hence
	// the v2 trace encoding) can represent.
	MaxRefSize     = 1<<metaSizeBits - 1
	metaOwnerShift = 32
)

// PackMeta packs one reference's size, write flag and owner into a meta
// word. Sizes above MaxRefSize panic: the v2 trace format reserves 31
// bits for the size.
//
//dvf:hotpath
func PackMeta(size uint32, write bool, owner int32) uint64 {
	if size > MaxRefSize {
		panic("trace: reference size exceeds the meta-word size domain")
	}
	m := uint64(uint32(owner))<<metaOwnerShift | uint64(size)<<metaSizeShift
	if write {
		m |= metaWriteBit
	}
	return m
}

// UnpackMeta is the inverse of PackMeta.
//
//dvf:hotpath
func UnpackMeta(m uint64) (size uint32, write bool, owner int32) {
	return uint32(m>>metaSizeShift) & MaxRefSize, m&metaWriteBit != 0, int32(uint32(m >> metaOwnerShift))
}

// ErrBadTrace reports a malformed trace container.
var ErrBadTrace = errors.New("trace: malformed trace file")

// WriterV2 accumulates a reference stream and writes it as one v2
// container on Flush. The column layout needs the record count up front,
// so records are buffered in memory (two uint64 columns — 16 bytes per
// reference, less than the Recorder most producers already hold).
type WriterV2 struct {
	w            io.Writer
	reg          *Registry
	addrs, metas []uint64
	err          error
}

// NewWriterV2 returns a writer that snapshots reg's region table into the
// container header at Flush time.
func NewWriterV2(w io.Writer, reg *Registry) *WriterV2 {
	return &WriterV2{w: w, reg: reg}
}

// Access appends one reference record. Errors (a size outside the meta
// word's 31-bit domain) are sticky and surfaced by Flush, so instrumented
// kernels do not need error plumbing per reference.
func (tw *WriterV2) Access(r Ref, owner int32) {
	if tw.err != nil {
		return
	}
	if r.Size > MaxRefSize {
		tw.err = fmt.Errorf("trace: v2 encoding: reference size %d exceeds %d", r.Size, uint32(MaxRefSize))
		return
	}
	tw.addrs = append(tw.addrs, r.Addr)
	tw.metas = append(tw.metas, PackMeta(r.Size, r.Write, owner))
}

// Flush writes the container and returns the first sticky error.
func (tw *WriterV2) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	bw := bufio.NewWriter(tw.w)
	regions := tw.reg.Regions()
	var hdr [v2HeaderSize]byte
	copy(hdr[0:4], traceMagicV2)
	binary.LittleEndian.PutUint16(hdr[4:6], traceVersionV2)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(regions)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(tw.addrs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	off := v2HeaderSize
	for _, r := range regions {
		var rec [20]byte
		binary.LittleEndian.PutUint32(rec[0:4], uint32(r.ID))
		binary.LittleEndian.PutUint64(rec[4:12], r.Base)
		binary.LittleEndian.PutUint64(rec[12:20], r.Size)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(r.Name)))
		if _, err := bw.Write(nl[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(r.Name); err != nil {
			return err
		}
		off += 22 + len(r.Name)
	}
	var pad [8]byte
	if rem := off % 8; rem != 0 {
		if _, err := bw.Write(pad[:8-rem]); err != nil {
			return err
		}
	}
	if err := writeColumn(bw, tw.addrs); err != nil {
		return err
	}
	if err := writeColumn(bw, tw.metas); err != nil {
		return err
	}
	return bw.Flush()
}

// writeColumn streams one uint64 column little-endian through a fixed
// scratch buffer.
func writeColumn(w io.Writer, col []uint64) error {
	var buf [512]byte
	for len(col) > 0 {
		n := len(buf) / 8
		if n > len(col) {
			n = len(col)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], col[i])
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		col = col[n:]
	}
	return nil
}

// TraceV2 is a decoded v2 container: the region table plus the two
// reference columns. When the underlying bytes are 8-byte aligned and the
// host is little-endian the columns alias the input directly (zero-copy);
// otherwise they are decoded once into fresh slices.
type TraceV2 struct {
	Regions []Region
	addrs   []uint64
	metas   []uint64
	aliased bool
}

// NumRefs returns the number of reference records.
func (t *TraceV2) NumRefs() int64 { return int64(len(t.addrs)) }

// ZeroCopy reports whether the columns alias the decoded byte slice
// (true on aligned little-endian inputs) instead of holding a copy.
func (t *TraceV2) ZeroCopy() bool { return t.aliased }

// Replay presents every record to c in order, one Access call each.
func (t *TraceV2) Replay(c Consumer) {
	metas := t.metas[:len(t.addrs)]
	for i, addr := range t.addrs {
		size, write, owner := UnpackMeta(metas[i])
		c.Access(Ref{Addr: addr, Size: size, Write: write}, owner)
	}
}

// nativeIsLittle reports whether the host stores integers little-endian,
// the precondition for aliasing the on-disk columns directly.
func nativeIsLittle() bool {
	var buf [2]byte
	binary.NativeEndian.PutUint16(buf[:], 0x0102)
	return buf[0] == 0x02
}

// DecodeV2 parses a v2 container from data. The returned trace keeps
// (and, on aligned little-endian hosts, aliases) data; the caller must
// keep the backing memory valid — and unmodified — for the trace's
// lifetime.
func DecodeV2(data []byte) (*TraceV2, error) {
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("%w: truncated v2 header", ErrBadTrace)
	}
	if string(data[0:4]) != traceMagicV2 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != traceVersionV2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	nRegions := binary.LittleEndian.Uint32(data[8:12])
	nRecords := binary.LittleEndian.Uint64(data[16:24])
	off := v2HeaderSize
	regions := make([]Region, 0, nRegions)
	for i := uint32(0); i < nRegions; i++ {
		if off+22 > len(data) {
			return nil, fmt.Errorf("%w: truncated region table", ErrBadTrace)
		}
		id := int32(binary.LittleEndian.Uint32(data[off : off+4]))
		base := binary.LittleEndian.Uint64(data[off+4 : off+12])
		size := binary.LittleEndian.Uint64(data[off+12 : off+20])
		nameLen := int(binary.LittleEndian.Uint16(data[off+20 : off+22]))
		off += 22
		if off+nameLen > len(data) {
			return nil, fmt.Errorf("%w: truncated region name", ErrBadTrace)
		}
		regions = append(regions, Region{
			ID: id, Base: base, Size: size, Name: string(data[off : off+nameLen]),
		})
		off += nameLen
	}
	if rem := off % 8; rem != 0 {
		off += 8 - rem
	}
	if nRecords > uint64((len(data))/16) { // cheap overflow guard before the exact check
		return nil, fmt.Errorf("%w: record count %d exceeds payload", ErrBadTrace, nRecords)
	}
	need := off + int(nRecords)*16
	if need > len(data) {
		return nil, fmt.Errorf("%w: truncated columns (need %d bytes, have %d)", ErrBadTrace, need, len(data))
	}
	t := &TraceV2{Regions: regions}
	n := int(nRecords)
	addrBytes := data[off : off+n*8]
	metaBytes := data[off+n*8 : off+n*16]
	if n == 0 {
		return t, nil
	}
	if nativeIsLittle() && uintptr(unsafe.Pointer(&addrBytes[0]))%8 == 0 {
		// Zero-copy: reinterpret the column bytes as []uint64 in place.
		t.addrs = unsafe.Slice((*uint64)(unsafe.Pointer(&addrBytes[0])), n)
		t.metas = unsafe.Slice((*uint64)(unsafe.Pointer(&metaBytes[0])), n)
		t.aliased = true
		return t, nil
	}
	// Misaligned or big-endian input: decode once into fresh columns.
	t.addrs = make([]uint64, n)
	t.metas = make([]uint64, n)
	for i := 0; i < n; i++ {
		t.addrs[i] = binary.LittleEndian.Uint64(addrBytes[i*8:])
		t.metas[i] = binary.LittleEndian.Uint64(metaBytes[i*8:])
	}
	return t, nil
}

// TraceFile is an opened on-disk trace. The file is memory-mapped and
// replayed zero-copy on little-endian hosts. Close releases the mapping.
type TraceFile struct {
	Regions []Region
	tr      *TraceV2 // nil once Closed
	closer  func() error
}

// errReplayClosed is what Replay returns on a Closed TraceFile.
var errReplayClosed = fmt.Errorf("trace: replay of a closed trace file: %w", os.ErrClosed)

// OpenTraceFile maps path and decodes it as a v2 container; any other
// content fails with ErrBadTrace. The returned TraceFile must be Closed
// when done.
func OpenTraceFile(path string) (*TraceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, closer, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	tr, err := DecodeV2(data)
	if err != nil {
		_ = closer() // the decode error is the one to report
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &TraceFile{Regions: tr.Regions, tr: tr, closer: closer}, nil
}

// NumRefs returns the number of reference records in the file (0 once
// Closed).
func (tf *TraceFile) NumRefs() int64 {
	if tf.tr == nil {
		return 0
	}
	return tf.tr.NumRefs()
}

// ZeroCopy reports whether replay reads the file mapping in place.
func (tf *TraceFile) ZeroCopy() bool { return tf.tr != nil && tf.tr.ZeroCopy() }

// Replay presents every record to c in order, as TraceV2.Replay does.
// On a Closed TraceFile it returns an error without calling c.
func (tf *TraceFile) Replay(c Consumer) error {
	if tf.tr == nil {
		return errReplayClosed
	}
	tf.tr.Replay(c)
	return nil
}

// Close releases the file mapping. The TraceFile is invalid afterwards.
// Close is idempotent.
func (tf *TraceFile) Close() error {
	if tf.closer == nil {
		return nil
	}
	c := tf.closer
	tf.closer, tf.tr = nil, nil
	return c()
}

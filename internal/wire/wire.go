// Package wire is the durable-checkpoint layer: a schema-versioned, compact
// binary encoding of a stencil checkpoint (the live time slots of every
// registered array plus the resume cursor) and a crash-safe spill journal of
// such encodings on disk.
//
// The format, "pochoir-checkpoint/v2", is designed for exactly two failure
// modes a long-running service meets in practice:
//
//   - torn writes: a process killed mid-spill must never leave an entry a
//     resumer mistakes for a good checkpoint. The journal writes entries via
//     temp-file + fsync + atomic rename, so a torn write is only ever a stale
//     temp file the reader ignores;
//
//   - silent corruption: a flipped bit on disk (or a truncated file after a
//     filesystem crash) must be detected, not restored. The header and every
//     array section carry an independent CRC-32, and the journal's loader
//     walks entries newest-first, skipping past any corrupt tail to the
//     newest entry that validates end to end.
//
// Layout (all integers little-endian, fixed width — the format is meant to
// be readable from any host, so no varints and no host-endianness):
//
//	header:
//	  magic     [4]byte  "PCHK"
//	  version   uint32   2 (1 is still read; see below)
//	  stepsRun  uint64   resume cursor (time steps completed)
//	  ndims     uint32   spatial dimensionality (1..MaxDims)
//	  sizes     ndims x uint64
//	  narrays   uint32   number of array sections that follow
//	  crc       uint32   CRC-32 (IEEE) of every header byte above
//
//	per-array section:
//	  kind      uint8    element kind (ElemKind)
//	  slots     uint32   the array's temporal copies (stencil depth + 1)
//	  nbytes    uint64   payload length: points*held*elemSize, 1 <= held <= slots
//	  data      nbytes bytes: held time slots in time order from stepsRun,
//	            elements little-endian
//	  crc       uint32   CRC-32 (IEEE) of kind..data
//
// A stencil checkpoint holds slots-1 slots per array: at cursor stepsRun the
// next step reads times stepsRun … stepsRun+slots-2, and the remaining slot
// holds time stepsRun-1, which no later step reads. Version 1 had the same
// layout but always held every slot, in slot-major order (slot i holds the
// times congruent to i modulo slots). Decode still reads it and returns its
// sections in version 2's form: all slots, rotated into time order from
// stepsRun.
//
// Encoding streams: the encoder writes through a fixed scratch buffer and
// never materializes a second full copy of the grid. Decoding is fuzz-safe:
// every count is validated against hard caps and against the arithmetic the
// header implies before any allocation, and payloads are read through a
// bounded chunk loop so a hostile nbytes cannot force an over-allocation —
// memory is bounded by the bytes actually present in the input.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Schema identifies the checkpoint wire format. It is not itself encoded
// (the magic+version pair is); consumers report it in diagnostics.
const Schema = "pochoir-checkpoint/v2"

// Magic opens every encoded checkpoint.
var Magic = [4]byte{'P', 'C', 'H', 'K'}

// Version is the format version Encode writes.
const Version = 2

// MaxDims caps the decoded dimensionality; it matches the engine's zoid
// limit with headroom (the package stays dependency-free, so the cap is
// restated here).
const MaxDims = 16

// MaxArrays caps the decoded array-section count. Real stencils register a
// handful of arrays; the cap only exists to bound hostile headers.
const MaxArrays = 1024

// maxSideLen caps one spatial extent; combined extents are additionally
// overflow-checked when multiplied.
const maxSideLen = 1 << 40

// chunk is the scratch-buffer size both the streaming encoder and the
// capped decoder work through.
const chunk = 64 * 1024

// ElemKind identifies the element type of an array section. The codes are
// part of the wire format: never renumber, only append.
type ElemKind uint8

const (
	elemInvalid ElemKind = iota
	ElemF64
	ElemF32
	ElemI64
	ElemI32
	ElemI16
	ElemI8
	ElemU64
	ElemU32
	ElemU16
	ElemU8
	// ElemInt and ElemUint are Go's platform-width int/uint, always encoded
	// as 64-bit so checkpoints relocate across architectures.
	ElemInt
	ElemUint

	numElemKinds
)

var elemNames = [numElemKinds]string{
	ElemF64: "float64", ElemF32: "float32",
	ElemI64: "int64", ElemI32: "int32", ElemI16: "int16", ElemI8: "int8",
	ElemU64: "uint64", ElemU32: "uint32", ElemU16: "uint16", ElemU8: "uint8",
	ElemInt: "int", ElemUint: "uint",
}

func (k ElemKind) String() string {
	if int(k) < len(elemNames) && elemNames[k] != "" {
		return elemNames[k]
	}
	return fmt.Sprintf("elem(%d)", uint8(k))
}

// Size returns the encoded bytes per element, or 0 for an invalid kind.
func (k ElemKind) Size() int {
	switch k {
	case ElemF64, ElemI64, ElemU64, ElemInt, ElemUint:
		return 8
	case ElemF32, ElemI32, ElemU32:
		return 4
	case ElemI16, ElemU16:
		return 2
	case ElemI8, ElemU8:
		return 1
	}
	return 0
}

// Checkpoint is the codec-level view of a stencil checkpoint: the resume
// cursor, the shared spatial extents, and one typed data section per
// registered array. The pochoir root package converts its generic
// Checkpoint[T] to and from this form.
type Checkpoint struct {
	// Version is the format version Decode read (1 or 2). Encode ignores it
	// and always writes Version.
	Version int
	// StepsRun is the resume cursor: time steps completed when the
	// checkpoint was taken.
	StepsRun int
	// Sizes are the spatial extents shared by every array.
	Sizes []int
	// Arrays holds one section per registered array, in registration order.
	Arrays []Array
}

// Array is one array section: the array's temporal slot count and the time
// slots the checkpoint holds, as a typed slice (one of the supported
// element slices; see KindOf).
type Array struct {
	// Slots is the array's number of temporal copies (stencil depth + 1).
	Slots int
	// Data holds consecutive time slots of the array, one after another in
	// time order from the checkpoint's StepsRun: a typed slice of length
	// points*held, where points is the product of the checkpoint's Sizes
	// and 1 <= held <= Slots. A stencil checkpoint holds the Slots-1 live
	// slots.
	Data any
}

// Held returns how many time slots a holds, or 0 when its length is not a
// whole number of slots of points each, or outside 1..Slots.
func (a Array) Held(points int) int {
	_, n, ok := KindOf(a.Data)
	if !ok || points <= 0 || n%points != 0 || n/points < 1 || n/points > a.Slots {
		return 0
	}
	return n / points
}

// KindOf maps a supported typed slice to its element kind and length.
// ok is false for unsupported element types.
func KindOf(data any) (kind ElemKind, n int, ok bool) {
	switch d := data.(type) {
	case []float64:
		return ElemF64, len(d), true
	case []float32:
		return ElemF32, len(d), true
	case []int64:
		return ElemI64, len(d), true
	case []int32:
		return ElemI32, len(d), true
	case []int16:
		return ElemI16, len(d), true
	case []int8:
		return ElemI8, len(d), true
	case []uint64:
		return ElemU64, len(d), true
	case []uint32:
		return ElemU32, len(d), true
	case []uint16:
		return ElemU16, len(d), true
	case []uint8:
		return ElemU8, len(d), true
	case []int:
		return ElemInt, len(d), true
	case []uint:
		return ElemUint, len(d), true
	}
	return elemInvalid, 0, false
}

// crcWriter tees writes into a CRC-32 and the underlying writer.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: w, crc: crc32.NewIEEE()}
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n])
	return n, err
}

func (c *crcWriter) sum() uint32 { return c.crc.Sum32() }
func (c *crcWriter) reset()      { c.crc.Reset() }

// points returns the spatial points per slot implied by sizes, validating
// each extent and guarding the product against overflow.
func points(sizes []int) (int, error) {
	if len(sizes) == 0 || len(sizes) > MaxDims {
		return 0, fmt.Errorf("wire: %d dimensions, want 1..%d", len(sizes), MaxDims)
	}
	total := 1
	for i, s := range sizes {
		if s <= 0 || s > maxSideLen {
			return 0, fmt.Errorf("wire: size of dimension %d is %d, want 1..%d", i, s, maxSideLen)
		}
		if total > math.MaxInt64/s {
			return 0, fmt.Errorf("wire: spatial extents %v overflow", sizes)
		}
		total *= s
	}
	return total, nil
}

// Encode writes cp to w in pochoir-checkpoint/v2 form. The encoder streams
// through a fixed scratch buffer: it never allocates a buffer proportional
// to the grid. Unsupported element types and geometry/data mismatches are
// rejected before any byte is written.
func Encode(w io.Writer, cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("wire: Encode of a nil checkpoint")
	}
	if cp.StepsRun < 0 {
		return fmt.Errorf("wire: negative StepsRun %d", cp.StepsRun)
	}
	pts, err := points(cp.Sizes)
	if err != nil {
		return err
	}
	if len(cp.Arrays) == 0 || len(cp.Arrays) > MaxArrays {
		return fmt.Errorf("wire: %d array sections, want 1..%d", len(cp.Arrays), MaxArrays)
	}
	// Validate every section up front so a failed Encode writes nothing.
	for i, a := range cp.Arrays {
		_, n, ok := KindOf(a.Data)
		if !ok {
			return fmt.Errorf("wire: array %d has unsupported element type %T", i, a.Data)
		}
		if a.Slots <= 0 {
			return fmt.Errorf("wire: array %d has %d slots, want >= 1", i, a.Slots)
		}
		if a.Held(pts) == 0 {
			return fmt.Errorf("wire: array %d has %d elements, not 1 to %d slots of %v points",
				i, n, a.Slots, cp.Sizes)
		}
	}

	bw := bufio.NewWriterSize(w, chunk)
	cw := newCRCWriter(bw)

	// Header.
	var scratch [8]byte
	if _, err := cw.Write(Magic[:]); err != nil {
		return err
	}
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := cw.Write(scratch[:4])
		return err
	}
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := cw.Write(scratch[:8])
		return err
	}
	if err := putU32(Version); err != nil {
		return err
	}
	if err := putU64(uint64(cp.StepsRun)); err != nil {
		return err
	}
	if err := putU32(uint32(len(cp.Sizes))); err != nil {
		return err
	}
	for _, s := range cp.Sizes {
		if err := putU64(uint64(s)); err != nil {
			return err
		}
	}
	if err := putU32(uint32(len(cp.Arrays))); err != nil {
		return err
	}
	// Header CRC goes to the raw writer: it covers the bytes above only.
	binary.LittleEndian.PutUint32(scratch[:4], cw.sum())
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}

	// Array sections.
	for _, a := range cp.Arrays {
		kind, n, _ := KindOf(a.Data)
		cw.reset()
		if _, err := cw.Write([]byte{byte(kind)}); err != nil {
			return err
		}
		if err := putU32(uint32(a.Slots)); err != nil {
			return err
		}
		if err := putU64(uint64(n) * uint64(kind.Size())); err != nil {
			return err
		}
		if err := encodeElems(cw, a.Data); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(scratch[:4], cw.sum())
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// hostLittleEndian reports whether this host's in-memory element bytes are
// already the wire's little-endian encoding.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// encodeElems streams a typed slice through a chunk-sized scratch buffer,
// or straight from its own memory where that already is the encoding.
func encodeElems(w io.Writer, data any) error {
	switch d := data.(type) {
	case []float64:
		if hostLittleEndian {
			// The common case converts nothing.
			return writeChunks(w, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(d))), len(d)*8))
		}
		return encode64(w, d, math.Float64bits)
	case []float32:
		return encode32(w, d, math.Float32bits)
	case []int64:
		return encode64(w, d, func(v int64) uint64 { return uint64(v) })
	case []int:
		return encode64(w, d, func(v int) uint64 { return uint64(int64(v)) })
	case []uint64:
		return encode64(w, d, func(v uint64) uint64 { return v })
	case []uint:
		return encode64(w, d, func(v uint) uint64 { return uint64(v) })
	case []int32:
		return encode32(w, d, func(v int32) uint32 { return uint32(v) })
	case []uint32:
		return encode32(w, d, func(v uint32) uint32 { return v })
	case []int16:
		return encode16(w, d, func(v int16) uint16 { return uint16(v) })
	case []uint16:
		return encode16(w, d, func(v uint16) uint16 { return v })
	case []int8:
		// Two's complement: an int8's byte is its encoding on any host.
		return writeChunks(w, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(d))), len(d)))
	case []uint8:
		_, err := w.Write(d)
		return err
	}
	return fmt.Errorf("wire: unsupported element type %T", data)
}

// writeChunks writes raw in chunk-sized pieces, so that each stays in cache
// between the CRC writer's checksum and its copy out.
func writeChunks(w io.Writer, raw []byte) error {
	for off := 0; off < len(raw); off += chunk {
		if _, err := w.Write(raw[off:min(off+chunk, len(raw))]); err != nil {
			return err
		}
	}
	return nil
}

func encode64[T any](w io.Writer, d []T, bits func(T) uint64) error {
	buf := make([]byte, chunk)
	for off := 0; off < len(d); off += chunk / 8 {
		n := min(chunk/8, len(d)-off)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], bits(d[off+i]))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
	}
	return nil
}

func encode32[T any](w io.Writer, d []T, bits func(T) uint32) error {
	buf := make([]byte, chunk)
	for off := 0; off < len(d); off += chunk / 4 {
		n := min(chunk/4, len(d)-off)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], bits(d[off+i]))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
	}
	return nil
}

func encode16[T any](w io.Writer, d []T, bits func(T) uint16) error {
	buf := make([]byte, chunk)
	for off := 0; off < len(d); off += chunk / 2 {
		n := min(chunk/2, len(d)-off)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(buf[i*2:], bits(d[off+i]))
		}
		if _, err := w.Write(buf[:n*2]); err != nil {
			return err
		}
	}
	return nil
}

// crcReader tees reads into a CRC-32.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, crc: crc32.NewIEEE()}
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc.Write(p[:n])
	return n, err
}

func (c *crcReader) sum() uint32 { return c.crc.Sum32() }
func (c *crcReader) reset()      { c.crc.Reset() }

// Decode reads one pochoir-checkpoint/v2 or v1 checkpoint from r; a v1
// section comes back rotated into v2's time order (see the package
// comment). Arbitrary or corrupt input returns an error — never a panic,
// and never an allocation beyond the input's actual size plus a fixed
// scratch buffer: every count is validated against the format's caps and
// the header's own arithmetic before use, and payloads are read through a
// bounded chunk loop so a hostile declared length fails at EOF instead of
// pre-allocating.
func Decode(r io.Reader) (*Checkpoint, error) {
	// No read-ahead buffering: every read is exact (io.ReadFull of either a
	// fixed header field or a payload chunk), so Decode consumes precisely
	// one encoding and leaves r positioned at its end — which is what lets
	// ReadEntry reject trailing garbage.
	cr := newCRCReader(r)
	var scratch [8]byte

	readFull := func(b []byte) error {
		_, err := io.ReadFull(cr, b)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("wire: truncated checkpoint: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	getU32 := func() (uint32, error) {
		if err := readFull(scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	getU64 := func() (uint64, error) {
		if err := readFull(scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}

	// Header.
	var magic [4]byte
	if err := readFull(magic[:]); err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, fmt.Errorf("wire: bad magic %q, want %q", magic[:], Magic[:])
	}
	version, err := getU32()
	if err != nil {
		return nil, err
	}
	if version != 1 && version != Version {
		return nil, fmt.Errorf("wire: unsupported version %d, want 1 or %d", version, Version)
	}
	stepsRun, err := getU64()
	if err != nil {
		return nil, err
	}
	if stepsRun > math.MaxInt64 {
		return nil, fmt.Errorf("wire: StepsRun %d out of range", stepsRun)
	}
	ndims, err := getU32()
	if err != nil {
		return nil, err
	}
	if ndims == 0 || ndims > MaxDims {
		return nil, fmt.Errorf("wire: %d dimensions, want 1..%d", ndims, MaxDims)
	}
	sizes := make([]int, ndims)
	for i := range sizes {
		s, err := getU64()
		if err != nil {
			return nil, err
		}
		if s == 0 || s > maxSideLen {
			return nil, fmt.Errorf("wire: size of dimension %d is %d, want 1..%d", i, s, maxSideLen)
		}
		sizes[i] = int(s)
	}
	pts, err := points(sizes)
	if err != nil {
		return nil, err
	}
	narrays, err := getU32()
	if err != nil {
		return nil, err
	}
	if narrays == 0 || narrays > MaxArrays {
		return nil, fmt.Errorf("wire: %d array sections, want 1..%d", narrays, MaxArrays)
	}
	wantCRC := cr.sum()
	gotCRC, err := getU32()
	if err != nil {
		return nil, err
	}
	if gotCRC != wantCRC {
		return nil, fmt.Errorf("wire: header CRC mismatch: stored %08x, computed %08x", gotCRC, wantCRC)
	}

	cp := &Checkpoint{Version: int(version), StepsRun: int(stepsRun), Sizes: sizes}
	for ai := 0; ai < int(narrays); ai++ {
		cr.reset()
		if err := readFull(scratch[:1]); err != nil {
			return nil, err
		}
		kind := ElemKind(scratch[0])
		esize := kind.Size()
		if esize == 0 {
			return nil, fmt.Errorf("wire: array %d has unknown element kind %d", ai, scratch[0])
		}
		slots32, err := getU32()
		if err != nil {
			return nil, err
		}
		slots := int(slots32)
		if slots == 0 {
			return nil, fmt.Errorf("wire: array %d has 0 slots", ai)
		}
		if pts > math.MaxInt64/slots || pts*slots > math.MaxInt64/esize {
			return nil, fmt.Errorf("wire: array %d geometry %v x %d slots overflows", ai, sizes, slots)
		}
		nbytes, err := getU64()
		if err != nil {
			return nil, err
		}
		// nbytes must be what the geometry implies — every slot in v1, 1 to
		// slots whole slots in v2; anything else is a corrupt or hostile
		// header, rejected before allocating.
		slotBytes := uint64(pts) * uint64(esize)
		held := int(nbytes / slotBytes)
		if nbytes%slotBytes != 0 || held < 1 || held > slots || version == 1 && held != slots {
			return nil, fmt.Errorf("wire: array %d declares %d payload bytes, not a whole number of %d-byte slots up to %d",
				ai, nbytes, slotBytes, slots)
		}
		rot := 0
		if version == 1 {
			// Slot-major to time order: the slot holding time stepsRun
			// comes first.
			rot = int(stepsRun%uint64(slots)) * pts
		}
		data, err := decodeElems(cr, kind, pts*held, rot)
		if err != nil {
			return nil, err
		}
		wantCRC := cr.sum()
		gotCRC, err := getU32()
		if err != nil {
			return nil, err
		}
		if gotCRC != wantCRC {
			return nil, fmt.Errorf("wire: array %d CRC mismatch: stored %08x, computed %08x", ai, gotCRC, wantCRC)
		}
		cp.Arrays = append(cp.Arrays, Array{Slots: slots, Data: data})
	}
	return cp, nil
}

// decodeElems reads elems elements of the given kind through a bounded
// chunk loop and rotates them left by rot in place. The typed result slice
// grows as bytes actually arrive, so a truncated input fails with at most
// one chunk of waste — the decoder never trusts a declared length for an
// up-front allocation larger than the input.
func decodeElems(r io.Reader, kind ElemKind, elems, rot int) (any, error) {
	switch kind {
	case ElemF64:
		return decodeChunked(r, elems, 8, rot, func(dst []float64, src []byte) {
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
			}
		})
	case ElemF32:
		return decode32(r, elems, rot, math.Float32frombits)
	case ElemI64:
		return decode64(r, elems, rot, func(b uint64) int64 { return int64(b) })
	case ElemInt:
		return decode64(r, elems, rot, func(b uint64) int { return int(int64(b)) })
	case ElemU64:
		return decode64(r, elems, rot, func(b uint64) uint64 { return b })
	case ElemUint:
		return decode64(r, elems, rot, func(b uint64) uint { return uint(b) })
	case ElemI32:
		return decode32(r, elems, rot, func(b uint32) int32 { return int32(b) })
	case ElemU32:
		return decode32(r, elems, rot, func(b uint32) uint32 { return b })
	case ElemI16:
		return decode16(r, elems, rot, func(b uint16) int16 { return int16(b) })
	case ElemU16:
		return decode16(r, elems, rot, func(b uint16) uint16 { return b })
	case ElemI8:
		return decodeBytes(r, elems, rot, func(b byte) int8 { return int8(b) })
	case ElemU8:
		return decodeBytes(r, elems, rot, func(b byte) uint8 { return b })
	}
	return nil, fmt.Errorf("wire: unknown element kind %d", kind)
}

func decodeChunked[T any](r io.Reader, elems, esize, rot int, fill func(dst []T, src []byte)) ([]T, error) {
	buf := make([]byte, chunk-chunk%esize)
	per := len(buf) / esize
	// Grow toward elems as data arrives instead of allocating elems up
	// front: truncated input then costs at most one chunk.
	out := make([]T, 0, min(elems, per))
	for got := 0; got < elems; {
		n := min(per, elems-got)
		if _, err := io.ReadFull(r, buf[:n*esize]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("wire: truncated array payload: %w", io.ErrUnexpectedEOF)
			}
			return nil, err
		}
		out = append(out, make([]T, n)...)
		fill(out[got:got+n], buf[:n*esize])
		got += n
	}
	if rot > 0 {
		slices.Reverse(out[:rot])
		slices.Reverse(out[rot:])
		slices.Reverse(out)
	}
	return out, nil
}

func decode64[T any](r io.Reader, elems, rot int, from func(uint64) T) ([]T, error) {
	return decodeChunked(r, elems, 8, rot, func(dst []T, src []byte) {
		for i := range dst {
			dst[i] = from(binary.LittleEndian.Uint64(src[i*8:]))
		}
	})
}

func decode32[T any](r io.Reader, elems, rot int, from func(uint32) T) ([]T, error) {
	return decodeChunked(r, elems, 4, rot, func(dst []T, src []byte) {
		for i := range dst {
			dst[i] = from(binary.LittleEndian.Uint32(src[i*4:]))
		}
	})
}

func decode16[T any](r io.Reader, elems, rot int, from func(uint16) T) ([]T, error) {
	return decodeChunked(r, elems, 2, rot, func(dst []T, src []byte) {
		for i := range dst {
			dst[i] = from(binary.LittleEndian.Uint16(src[i*2:]))
		}
	})
}

func decodeBytes[T any](r io.Reader, elems, rot int, from func(byte) T) ([]T, error) {
	return decodeChunked(r, elems, 1, rot, func(dst []T, src []byte) {
		for i := range dst {
			dst[i] = from(src[i])
		}
	})
}

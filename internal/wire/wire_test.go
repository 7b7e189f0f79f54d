package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// sampleCheckpoint builds a two-array checkpoint with deterministic values
// spanning negative, fractional, and special floats.
func sampleCheckpoint() *Checkpoint {
	const X, Y, slots = 7, 5, 2
	a := make([]float64, X*Y*slots)
	b := make([]float64, X*Y*slots)
	for i := range a {
		a[i] = math.Sqrt(float64(i)) - 3.25
		b[i] = float64(i%13) * -0.5
	}
	a[3] = math.Inf(1)
	a[4] = math.NaN()
	return &Checkpoint{
		StepsRun: 42,
		Sizes:    []int{X, Y},
		Arrays:   []Array{{Slots: slots, Data: a}, {Slots: slots, Data: b}},
	}
}

func encodeToBytes(t *testing.T, cp *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, cp); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripFloat64(t *testing.T) {
	cp := sampleCheckpoint()
	data := encodeToBytes(t, cp)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.StepsRun != cp.StepsRun {
		t.Fatalf("StepsRun = %d, want %d", got.StepsRun, cp.StepsRun)
	}
	if len(got.Sizes) != 2 || got.Sizes[0] != 7 || got.Sizes[1] != 5 {
		t.Fatalf("Sizes = %v", got.Sizes)
	}
	if len(got.Arrays) != 2 {
		t.Fatalf("arrays = %d, want 2", len(got.Arrays))
	}
	for ai := range got.Arrays {
		want := cp.Arrays[ai].Data.([]float64)
		gotD, ok := got.Arrays[ai].Data.([]float64)
		if !ok {
			t.Fatalf("array %d decoded as %T", ai, got.Arrays[ai].Data)
		}
		if len(gotD) != len(want) {
			t.Fatalf("array %d length %d, want %d", ai, len(gotD), len(want))
		}
		for i := range want {
			// Bit-exact comparison: NaN must round-trip too.
			if math.Float64bits(gotD[i]) != math.Float64bits(want[i]) {
				t.Fatalf("array %d element %d = %v, want %v", ai, i, gotD[i], want[i])
			}
		}
	}
}

func TestRoundTripAllElemKinds(t *testing.T) {
	mk := func(data any) *Checkpoint {
		return &Checkpoint{StepsRun: 1, Sizes: []int{3, 2}, Arrays: []Array{{Slots: 1, Data: data}}}
	}
	cases := []any{
		[]float64{1.5, -2, 3, 4, 5, 6},
		[]float32{1.5, -2, 3, 4, 5, 6},
		[]int64{-1, 2, -3, 4, -5, math.MaxInt64},
		[]int32{-1, 2, -3, 4, -5, math.MaxInt32},
		[]int16{-1, 2, -3, 4, -5, math.MaxInt16},
		[]int8{-1, 2, -3, 4, -5, math.MaxInt8},
		[]uint64{1, 2, 3, 4, 5, math.MaxUint64},
		[]uint32{1, 2, 3, 4, 5, math.MaxUint32},
		[]uint16{1, 2, 3, 4, 5, math.MaxUint16},
		[]uint8{1, 2, 3, 4, 5, math.MaxUint8},
		[]int{-1, 2, -3, 4, -5, math.MaxInt64},
		[]uint{1, 2, 3, 4, 5, 6},
	}
	for _, data := range cases {
		cp := mk(data)
		out := encodeToBytes(t, cp)
		got, err := Decode(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("%T: Decode: %v", data, err)
		}
		if !deepEqualSlices(got.Arrays[0].Data, data) {
			t.Fatalf("%T: round trip mismatch: got %v, want %v", data, got.Arrays[0].Data, data)
		}
	}
}

func deepEqualSlices(a, b any) bool {
	switch x := a.(type) {
	case []float64:
		y, ok := b.([]float64)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	case []float32:
		y, ok := b.([]float32)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	}
	ka, na, _ := KindOf(a)
	kb, nb, _ := KindOf(b)
	if ka != kb || na != nb {
		return false
	}
	var bufA, bufB bytes.Buffer
	_ = encodeElems(&bufA, a)
	_ = encodeElems(&bufB, b)
	return bytes.Equal(bufA.Bytes(), bufB.Bytes())
}

func TestEncodeRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		name string
		cp   *Checkpoint
	}{
		{"nil", nil},
		{"negative-steps", &Checkpoint{StepsRun: -1, Sizes: []int{2}, Arrays: []Array{{Slots: 1, Data: []float64{0, 0}}}}},
		{"no-sizes", &Checkpoint{Sizes: nil, Arrays: []Array{{Slots: 1, Data: []float64{}}}}},
		{"no-arrays", &Checkpoint{Sizes: []int{2}}},
		{"bad-length", &Checkpoint{Sizes: []int{2}, Arrays: []Array{{Slots: 2, Data: []float64{1, 2, 3}}}}},
		{"zero-slots", &Checkpoint{Sizes: []int{2}, Arrays: []Array{{Slots: 0, Data: []float64{}}}}},
		{"unsupported-type", &Checkpoint{Sizes: []int{1}, Arrays: []Array{{Slots: 1, Data: []string{"x"}}}}},
	}
	for _, tc := range cases {
		buf.Reset()
		if err := Encode(&buf, tc.cp); err == nil {
			t.Errorf("%s: Encode succeeded, want error", tc.name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: failed Encode wrote %d bytes", tc.name, buf.Len())
		}
	}
}

// TestDecodeDetectsEveryFlippedByte flips each byte of a valid encoding in
// turn and requires the decoder to reject the result (or, for the rare flips
// that keep the checkpoint well-formed, such as the unused high bits of a
// value, to at least not panic). Header and CRC bytes must always be caught.
func TestDecodeDetectsEveryFlippedByte(t *testing.T) {
	data := encodeToBytes(t, sampleCheckpoint())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		got, err := Decode(bytes.NewReader(mut))
		if err == nil {
			// A flip inside an array payload changes the data; the section
			// CRC must have caught it, so reaching here is a hard failure.
			_ = got
			t.Fatalf("flip at byte %d of %d decoded successfully", i, len(data))
		}
	}
}

func TestDecodeDetectsTruncation(t *testing.T) {
	data := encodeToBytes(t, sampleCheckpoint())
	for _, cut := range []int{0, 1, 3, 4, 11, len(data) / 2, len(data) - 5, len(data) - 1} {
		if _, err := Decode(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(data))
		}
	}
}

func TestDecodeRejectsHostileHeader(t *testing.T) {
	// A header declaring astronomically large extents must be rejected
	// before any proportional allocation.
	cp := &Checkpoint{StepsRun: 0, Sizes: []int{2}, Arrays: []Array{{Slots: 1, Data: []float64{1, 2}}}}
	data := encodeToBytes(t, cp)
	// Corrupt the size field (offset: magic 4 + version 4 + steps 8 + ndims 4).
	mut := append([]byte(nil), data...)
	for i := 20; i < 28; i++ {
		mut[i] = 0xff
	}
	if _, err := Decode(bytes.NewReader(mut)); err == nil {
		t.Fatal("hostile sizes decoded successfully")
	}
	if _, err := Decode(strings.NewReader("PCHK garbage")); err == nil {
		t.Fatal("garbage after magic decoded successfully")
	}
}

func TestDecodeRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(512)
		b := make([]byte, n)
		rng.Read(b)
		if rng.Intn(2) == 0 && n >= 4 {
			copy(b, Magic[:]) // exercise past the magic check half the time
		}
		_, _ = Decode(bytes.NewReader(b)) // must not panic
	}
}

func TestElemKindStringAndSize(t *testing.T) {
	for k := ElemF64; k < numElemKinds; k++ {
		if k.Size() == 0 {
			t.Errorf("kind %d has size 0", k)
		}
		if strings.HasPrefix(k.String(), "elem(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if ElemKind(200).Size() != 0 {
		t.Error("invalid kind has nonzero size")
	}
}

// v1Entry is a spill journal entry the version-1 encoder wrote: a 2D wave
// stencil (depth 2, so three slots) on a 16x16 torus, checkpointed at step
// 8, whose slot-major payload starts with slot 0 although time 8 lives in
// slot 2.
const v1Entry = "testdata/v1-wave2d-16x16-step8.pchk"

// TestDecodeV1Entry: a version-1 section decodes into version 2's form,
// every slot in time order from StepsRun, and re-encodes as version 2.
func TestDecodeV1Entry(t *testing.T) {
	raw, err := os.ReadFile(v1Entry)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	const pts, slots = 16 * 16, 3
	if cp.Version != 1 || cp.StepsRun != 8 || len(cp.Sizes) != 2 || cp.Sizes[0] != 16 || cp.Sizes[1] != 16 || len(cp.Arrays) != 1 {
		t.Fatalf("decoded version %d, step %d, sizes %v, %d arrays; want 1, 8, [16 16], 1", cp.Version, cp.StepsRun, cp.Sizes, len(cp.Arrays))
	}
	a := cp.Arrays[0]
	data, ok := a.Data.([]float64)
	if a.Slots != slots || !ok || a.Held(pts) != slots {
		t.Fatalf("section: %d slots, %T holding %d slots; want 3 slots of float64, all held", a.Slots, a.Data, a.Held(pts))
	}
	// The payload follows a 44-byte header and the section's 13-byte
	// preamble; slot s of it holds the times congruent to s modulo 3.
	const payload = 44 + 13
	for k := 0; k < slots; k++ {
		s := (cp.StepsRun + k) % slots
		for i := 0; i < pts; i++ {
			want := math.Float64frombits(binary.LittleEndian.Uint64(raw[payload+8*(s*pts+i):]))
			if got := data[k*pts+i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("time %d point %d = %v, want slot %d's %v", cp.StepsRun+k, i, got, s, want)
			}
		}
	}
	back, err := Decode(bytes.NewReader(encodeToBytes(t, cp)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != Version || !deepEqualSlices(back.Arrays[0].Data, a.Data) {
		t.Fatalf("re-encoded entry decodes as version %d with different data", back.Version)
	}
}

// TestLiveSlotSection: a section holding fewer slots than the array has
// round-trips with its slot count, and its payload is only the slots held.
func TestLiveSlotSection(t *testing.T) {
	live := make([]float64, 2*6) // two of three slots of a 3x2 grid
	for i := range live {
		live[i] = float64(i) / 4
	}
	cp := &Checkpoint{StepsRun: 7, Sizes: []int{3, 2}, Arrays: []Array{{Slots: 3, Data: live}}}
	full := &Checkpoint{StepsRun: 7, Sizes: []int{3, 2}, Arrays: []Array{{Slots: 3, Data: make([]float64, 3*6)}}}
	data, fullData := encodeToBytes(t, cp), encodeToBytes(t, full)
	if d := len(fullData) - len(data); d != 6*8 {
		t.Fatalf("the live-slot encoding is %d bytes shorter than the full one, want one slot's 48", d)
	}
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Arrays[0].Slots != 3 || got.Arrays[0].Held(6) != 2 || !deepEqualSlices(got.Arrays[0].Data, live) {
		t.Fatalf("decoded %d slots holding %d: %v", got.Arrays[0].Slots, got.Arrays[0].Held(6), got.Arrays[0].Data)
	}
	over := &Checkpoint{Sizes: []int{3, 2}, Arrays: []Array{{Slots: 1, Data: live}}}
	if err := Encode(new(bytes.Buffer), over); err == nil {
		t.Fatal("Encode took a section holding more slots than the array has")
	}
}

// elementLoop is the reference float64 encoding: one little-endian
// PutUint64 per element.
func elementLoop(d []float64) []byte {
	out := make([]byte, 8*len(d))
	for i, v := range d {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// writeSizes records the size of every write it is handed.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestEncodeBulkMatchesElementLoop: a []float64 section encodes byte for
// byte what the element loop writes, on the host's bulk path and on the
// converting path big-endian hosts take, in writes of at most a chunk,
// across chunk boundaries and for NaN payloads, -0, ±Inf and subnormals.
// An []int8 section, also written from its own memory, is its two's
// complement bytes.
func TestEncodeBulkMatchesElementLoop(t *testing.T) {
	special := []uint64{
		0x7ff8000000000000, // quiet NaN
		0x7ff0000000000001, // signalling NaN, lowest payload
		0xfff4000000000abc, // negative NaN with a payload
		0x8000000000000000, // -0
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x0000000000000001, // smallest subnormal
		0x800fffffffffffff, // largest negative subnormal
	}
	rng := rand.New(rand.NewSource(3))
	per := chunk / 8
	for _, n := range []int{0, 1, per - 1, per, per + 1, 3*per + 5} {
		d := make([]float64, n)
		for i := range d {
			bits := rng.Uint64()
			if i%5 == 0 {
				bits = special[(i/5)%len(special)]
			}
			d[i] = math.Float64frombits(bits)
		}
		want := elementLoop(d)
		var bulk writeSizes
		if err := encodeElems(&bulk, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bulk.Bytes(), want) {
			t.Fatalf("%d elements: encodeElems differs from the element loop", n)
		}
		for _, s := range bulk.sizes {
			if s > chunk {
				t.Fatalf("%d elements: a write of %d bytes, want at most %d", n, s, chunk)
			}
		}
		var conv bytes.Buffer
		if err := encode64(&conv, d, math.Float64bits); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(conv.Bytes(), want) {
			t.Fatalf("%d elements: the converting path differs from the element loop", n)
		}
	}
	var b bytes.Buffer
	if err := encodeElems(&b, []int8{-128, -1, 0, 1, 127}); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0x80, 0xff, 0, 1, 0x7f}; !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("[]int8 encodes as % x, want % x", b.Bytes(), want)
	}
}

// BenchmarkEncodeFloat64 encodes a 2 MiB single-array checkpoint, the size
// of one slot of a 512² float64 grid, and reports its throughput.
func BenchmarkEncodeFloat64(b *testing.B) {
	const X, Y = 512, 512
	d := make([]float64, X*Y)
	for i := range d {
		d[i] = float64(i) / 3
	}
	cp := &Checkpoint{Sizes: []int{X, Y}, Arrays: []Array{{Slots: 2, Data: d}}}
	b.SetBytes(int64(8 * len(d)))
	b.ReportAllocs()
	for b.Loop() {
		if err := Encode(io.Discard, cp); err != nil {
			b.Fatal(err)
		}
	}
}

package wire

import (
	"bytes"
	"os"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to the checkpoint decoder. The
// contract under fuzzing: any input either decodes to a structurally valid
// checkpoint or returns an error — never a panic, and never an allocation
// proportional to a hostile declared size rather than to the input itself
// (section lengths are validated against the header's geometry and payloads
// are read through a bounded chunk loop).
func FuzzWireDecode(f *testing.F) {
	// Seed with valid encodings of a few shapes and element kinds so the
	// fuzzer starts past the magic/version gate.
	seeds := []*Checkpoint{
		{StepsRun: 0, Sizes: []int{2}, Arrays: []Array{{Slots: 1, Data: []float64{1, 2}}}},
		{StepsRun: 9, Sizes: []int{3, 2}, Arrays: []Array{
			{Slots: 2, Data: []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
			{Slots: 1, Data: []float32{1, 2, 3, 4, 5, 6}},
		}},
		{StepsRun: 100, Sizes: []int{2, 2, 2}, Arrays: []Array{{Slots: 1, Data: []uint8{1, 2, 3, 4, 5, 6, 7, 8}}}},
		{StepsRun: 5, Sizes: []int{4}, Arrays: []Array{{Slots: 1, Data: []int{-4, -3, -2, -1}}}},
	}
	for _, cp := range seeds {
		var buf bytes.Buffer
		if err := Encode(&buf, cp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("PCHK"))
	f.Add([]byte{})
	// A version-1 journal entry, and a version-2 section holding the live
	// slots only.
	v1, err := os.ReadFile(v1Entry)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	var live bytes.Buffer
	if err := Encode(&live, &Checkpoint{StepsRun: 4, Sizes: []int{2, 2}, Arrays: []Array{
		{Slots: 3, Data: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
	}}); err != nil {
		f.Fatal(err)
	}
	f.Add(live.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must be internally consistent and must
		// re-encode: the invariants Restore relies on.
		pts := 1
		for _, s := range cp.Sizes {
			pts *= s
		}
		for i, a := range cp.Arrays {
			kind, n, ok := KindOf(a.Data)
			if !ok || kind.Size() == 0 {
				t.Fatalf("decoded array %d has unsupported data %T", i, a.Data)
			}
			if a.Held(pts) == 0 {
				t.Fatalf("decoded array %d has %d elements, not 1 to %d slots of %d points", i, n, a.Slots, pts)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, cp); err != nil {
			t.Fatalf("re-encode of decoded checkpoint failed: %v", err)
		}
	})
}

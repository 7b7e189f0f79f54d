package grid

import "testing"

// TestCheckpointRestoreRoundTrip: a checkpoint at time from holds the live
// slots of times from … from+slots-2, and Restore writes back exactly
// those; the dead slot, which holds time from-1, keeps what it has.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	const from = 4 // times 4 and 5 live in slots 1 and 2; slot 0 (time 3) is dead
	a := MustNewArray[float64](2, 3, 4)
	for s := 0; s < a.Slots(); s++ {
		slot := a.Slot(s)
		for i := range slot {
			slot[i] = float64(s*100 + i)
		}
	}
	cp := a.Checkpoint(from)
	if got, want := len(cp.Data()), 2*a.PointsPerSlot(); got != want {
		t.Fatalf("checkpoint holds %d elements, want %d (the two live slots)", got, want)
	}

	// Scribble over every slot, then restore.
	for s := 0; s < a.Slots(); s++ {
		a.Fill(s, -1)
	}
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < a.Slots(); s++ {
		slot := a.Slot(s)
		for i := range slot {
			want := float64(s*100 + i)
			if s == (from-1)%a.Slots() {
				want = -1
			}
			if slot[i] != want {
				t.Fatalf("slot %d index %d = %v after restore, want %v", s, i, slot[i], want)
			}
		}
	}
}

func TestCheckpointIsDeepCopy(t *testing.T) {
	a := MustNewArray[int](1, 4)
	a.Fill(0, 7)
	cp := a.Checkpoint(0)
	a.Fill(0, 9) // mutating the array must not touch the checkpoint
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := a.Slot(0)[0]; got != 7 {
		t.Fatalf("restore returned %d, want the checkpointed 7", got)
	}
	// And restoring must not alias: mutate after restore, restore again.
	a.Fill(0, 11)
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := a.Slot(0)[0]; got != 7 {
		t.Fatalf("second restore returned %d, want 7", got)
	}
}

// TestCheckpointIntoReusesStorage: a checkpoint of the same geometry is
// overwritten in place, with no allocation; one of another geometry is
// replaced.
func TestCheckpointIntoReusesStorage(t *testing.T) {
	a := MustNewArray[float64](1, 16, 16)
	cp := a.CheckpointInto(nil, 0)
	data := &cp.Data()[0]
	if n := testing.AllocsPerRun(10, func() { cp = a.CheckpointInto(cp, 3) }); n != 0 {
		t.Fatalf("CheckpointInto a matching checkpoint made %v allocations, want 0", n)
	}
	if &cp.Data()[0] != data {
		t.Fatal("CheckpointInto replaced a checkpoint it could reuse")
	}
	a.Fill(3, 5)
	a.Fill(4, 6)
	a.CheckpointInto(cp, 3)
	a.Fill(3, 0)
	if err := a.Restore(cp); err != nil || a.Slot(3)[0] != 5 || a.Slot(4)[0] != 6 {
		t.Fatalf("restore of a reused checkpoint: %v, slots hold %v and %v, want 5 and 6", err, a.Slot(3)[0], a.Slot(4)[0])
	}
	b := MustNewArray[float64](2, 16, 16)
	if got := b.CheckpointInto(cp, 0); got == cp || len(got.Data()) != 2*b.PointsPerSlot() {
		t.Fatal("CheckpointInto reused a checkpoint of another depth")
	}
}

// TestNewArrayCheckpointHeldSlots: a reassembled checkpoint holds the live
// slots or, as a version-1 spill did, every slot; restoring the latter
// writes every slot back in time order.
func TestNewArrayCheckpointHeldSlots(t *testing.T) {
	a := MustNewArray[int](2, 2)
	for _, n := range []int{0, 2, 3, 8} {
		if _, err := NewArrayCheckpoint([]int{2}, 3, 0, make([]int, n)); err == nil {
			t.Errorf("NewArrayCheckpoint took %d elements for 3 slots of 2 points", n)
		}
	}
	// Times 5, 6, 7 live in slots 2, 0, 1.
	cp, err := NewArrayCheckpoint([]int{2}, 3, 5, []int{50, 51, 60, 61, 70, 71})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for tt := 5; tt <= 7; tt++ {
		if got := a.Slot(tt); got[0] != 10*tt || got[1] != 10*tt+1 {
			t.Fatalf("time %d holds %v after restoring every slot", tt, got)
		}
	}
}

func TestRestoreRejectsMismatchedGeometry(t *testing.T) {
	a := MustNewArray[float64](1, 4, 4)
	for _, other := range []*Array[float64]{
		MustNewArray[float64](2, 4, 4), // different depth
		MustNewArray[float64](1, 4),    // different dimensionality
		MustNewArray[float64](1, 4, 5), // different extent
	} {
		if err := a.Restore(other.Checkpoint(0)); err == nil {
			t.Fatalf("restore accepted checkpoint of %v slots=%d", other.Sizes(), other.Slots())
		}
	}
	if err := a.Restore(nil); err == nil {
		t.Fatal("restore accepted nil checkpoint")
	}
}

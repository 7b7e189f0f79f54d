package pochoir

import (
	"context"
	"fmt"
	"io"

	"pochoir/internal/grid"
	"pochoir/internal/telemetry"
	"pochoir/internal/wire"
)

// CheckpointSchema identifies the durable checkpoint wire format
// ("pochoir-checkpoint/v2"): a schema-versioned, compact binary encoding of
// a Checkpoint — magic, version, resume cursor, grid geometry, and one typed
// data section per registered array holding its live time slots, each
// independently CRC-32 protected. Version-1 encodings, which held every
// slot, still decode. See internal/wire for the layout.
const CheckpointSchema = wire.Schema

// SpillEntry describes one entry of a durable spill journal; see
// ListSpillJournal.
type SpillEntry = wire.Entry

// EncodeCheckpoint writes cp to w in the versioned pochoir-checkpoint/v2
// wire format. The encoding streams through a fixed scratch buffer — it
// never materializes a second copy of the grid — and covers the header and
// every array section with independent CRC-32 checksums, so a later decode
// detects any corruption. Element types must be numeric (the fixed-width
// integers, int/uint, float32/float64); other element types have no durable
// encoding and are rejected.
func EncodeCheckpoint[T any](w io.Writer, cp *Checkpoint[T]) error {
	wcp, err := wireCheckpoint(cp)
	if err != nil {
		return err
	}
	return wire.Encode(w, wcp)
}

// DecodeCheckpoint reads one pochoir-checkpoint/v2 (or v1) encoding from r
// and converts it back to a Checkpoint restorable into a stencil of element
// type T. Corrupt, truncated, or hostile input returns an error — never a
// panic — and allocation is bounded by the bytes actually present in the
// input.
func DecodeCheckpoint[T any](r io.Reader) (*Checkpoint[T], error) {
	wcp, err := wire.Decode(r)
	if err != nil {
		return nil, err
	}
	return checkpointFromWire[T](wcp)
}

// ListSpillJournal lists the entries of the spill journal in dir, oldest
// first — the checkpoints a supervised run with SpillDir has persisted so
// far. Entries are listed by name only; use DecodeCheckpoint (or
// cmd/blackbox checkpoints) to validate one.
func ListSpillJournal(dir string) ([]SpillEntry, error) {
	j, err := wire.OpenJournal(dir, 0)
	if err != nil {
		return nil, err
	}
	return j.Entries()
}

// wireCheckpoint converts a live checkpoint to its codec-level form. The
// array data is shared, not copied: wire.Encode only reads it, and
// checkpoints are immutable after capture.
func wireCheckpoint[T any](cp *Checkpoint[T]) (*wire.Checkpoint, error) {
	if cp == nil {
		return nil, fmt.Errorf("pochoir: encode of a nil checkpoint")
	}
	if len(cp.arrays) == 0 {
		return nil, fmt.Errorf("pochoir: checkpoint holds no arrays")
	}
	w := &wire.Checkpoint{StepsRun: cp.stepsRun, Sizes: cp.arrays[0].Sizes()}
	for i, a := range cp.arrays {
		data := a.Data()
		if _, _, ok := wire.KindOf(data); !ok {
			return nil, fmt.Errorf("pochoir: checkpoint array %d: element type %T has no durable encoding", i, data)
		}
		w.Arrays = append(w.Arrays, wire.Array{Slots: a.Slots(), Data: data})
	}
	return w, nil
}

// checkpointFromWire converts a decoded codec-level checkpoint back to a
// restorable Checkpoint[T], rejecting element-type mismatches (a float64
// journal does not restore into a float32 stencil).
func checkpointFromWire[T any](w *wire.Checkpoint) (*Checkpoint[T], error) {
	if w == nil {
		return nil, fmt.Errorf("pochoir: decode of a nil checkpoint")
	}
	cp := &Checkpoint[T]{stepsRun: w.StepsRun}
	for i, a := range w.Arrays {
		data, ok := a.Data.([]T)
		if !ok {
			var zero T
			return nil, fmt.Errorf("pochoir: checkpoint array %d holds %T elements, stencil element type is %T",
				i, a.Data, zero)
		}
		acp, err := grid.NewArrayCheckpoint(w.Sizes, a.Slots, w.StepsRun, data)
		if err != nil {
			return nil, fmt.Errorf("pochoir: checkpoint array %d: %w", i, err)
		}
		cp.arrays = append(cp.arrays, acp)
	}
	return cp, nil
}

// ResumeSupervised continues an interrupted supervised run from its durable
// spill journal — the cross-process half of SupervisePolicy.SpillDir. A
// fresh process reconstructs the stencil and its arrays (initial contents do
// not matter; the restore overwrites them), then calls ResumeSupervised with
// the same total step count and a policy naming the same SpillDir:
//
//   - the journal is walked newest-first and every entry's CRCs are
//     validated, skipping past any torn or corrupt tail to the newest entry
//     that checks out end to end;
//   - the stencil is restored to that checkpoint and only the remaining
//     totalSteps - checkpoint steps run under RunSupervised, with the same
//     retry ladder and the same journal receiving further spills;
//   - an empty (or fully corrupt) journal falls back to a cold start: the
//     full run from step zero, again under RunSupervised.
//
// Because a checkpoint captures every time slot the remaining steps read,
// of every array, plus the resume cursor, and each point update is a pure
// function of older slots, the resumed run's final grid is bit-identical to
// an uninterrupted run's.
//
// The resume decision is the first event of the returned report: a
// SupResume whose Attempt is the restored cursor, or whose Err says why a
// cold start happened, with Count the corrupt entries skipped. Like every
// supervisor decision it also reaches the flight recorder, the
// pochoir_resume_total and pochoir_resume_corrupt_entries_total counters,
// the trace and p.OnEvent.
func (s *Stencil[T]) ResumeSupervised(ctx context.Context, totalSteps int, kern Kernel, p SupervisePolicy) (*RunReport, error) {
	if p.SpillDir == "" {
		return nil, fmt.Errorf("pochoir: ResumeSupervised needs SpillDir set")
	}
	if totalSteps < 0 {
		return nil, fmt.Errorf("pochoir: negative step count %d", totalSteps)
	}
	if len(s.arrays) == 0 {
		return nil, fmt.Errorf("pochoir: no arrays registered")
	}
	jour, err := wire.OpenJournal(p.SpillDir, p.SpillKeep)
	if err != nil {
		return nil, fmt.Errorf("pochoir: open spill journal: %w", err)
	}
	wcp, ent, skipped, err := jour.LoadLatest()
	if err != nil {
		return nil, fmt.Errorf("pochoir: read spill journal: %w", err)
	}
	resume := SupervisorEvent{Kind: telemetry.SupResume, Count: int64(skipped)}
	if wcp == nil {
		// Nothing durable to resume from: cold start.
		resume.Err = "journal empty (cold start)"
		if skipped > 0 {
			resume.Err = fmt.Sprintf("all %d journal entries corrupt (cold start)", skipped)
		}
		return s.runSupervised(ctx, totalSteps, kern, p, &resume)
	}
	cp, err := checkpointFromWire[T](wcp)
	if err != nil {
		// The entry validates on the wire but does not fit this stencil:
		// that is a misconfiguration (wrong element type), not corruption.
		return nil, err
	}
	if cp.stepsRun > totalSteps {
		return nil, fmt.Errorf("pochoir: durable checkpoint %s is at step %d, past the requested total %d",
			ent.Path, cp.stepsRun, totalSteps)
	}
	if err := s.Restore(cp); err != nil {
		return nil, fmt.Errorf("pochoir: restore durable checkpoint %s: %w", ent.Path, err)
	}
	resume.Attempt = cp.stepsRun
	return s.runSupervised(ctx, totalSteps-cp.stepsRun, kern, p, &resume)
}

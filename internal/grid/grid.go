// Package grid implements Pochoir arrays (§2): a d-dimensional spatial grid
// crossed with a small circular temporal buffer of depth k+1, where k is the
// depth of the stencil shape the array participates in.
//
// The array provides two access paths, mirroring the paper's two kernel
// clones (§4, "Handling boundary conditions by code cloning"):
//
//   - the checked path (Get/Set, GetPeriodic/GetClamped) consults the
//     registered boundary function whenever a spatial index falls outside
//     the computing domain, and optionally enforces the declared stencil
//     shape — this is the Phase-1 "template library" behaviour, including
//     the Pochoir Guarantee check;
//   - the unchecked interior path (direct Slot access with Stride) performs
//     only address arithmetic and is what Phase-2 generated code and the
//     hand-specialized kernels use inside interior zoids.
package grid

import (
	"fmt"
	"math"
	"sync"

	"pochoir/internal/shape"
)

// Boundary supplies a value for an access that falls outside the computing
// domain of array a: t is the time coordinate and idx the off-domain spatial
// coordinates. It corresponds to Pochoir_Boundary_dimD.
type Boundary[T any] func(a *Array[T], t int, idx []int) T

// Array is a Pochoir array: |sizes[0]| x ... x |sizes[d-1]| spatial points,
// each with slots = depth+1 time copies reused modulo slots as the
// computation proceeds. The last spatial dimension is unit-stride.
type Array[T any] struct {
	// direct is set while the rank is 2, slots is a power of two and no shape
	// is checked: Get and Set then serve in-domain indices through directAt.
	direct bool
	mask   int // slots-1 when slots is a power of two, else 0
	total  int // product of the extents: points per time slot
	data   []T
	dims   []dim // slowest-varying first; backed by inline up to its length
	inline [4]dim
	slots  int // depth + 1

	boundary Boundary[T]
	owned    idxArena

	// Shape-compliance checking (the Pochoir Guarantee, Phase 1).
	checkShape *shape.Shape
	homeT      int
	homeX      []int
	checkErr   error
}

// NewArray allocates a Pochoir array with the given stencil depth (the
// temporal buffer holds depth+1 slots) and spatial sizes. Sizes are listed
// from the slowest-varying dimension to the unit-stride dimension, matching
// the index order of Get/Set. Every slot starts zeroed; the storage may
// come from the free list (see Release).
func NewArray[T any](depth int, sizes ...int) (*Array[T], error) {
	if depth < 1 {
		return nil, fmt.Errorf("grid: depth must be >= 1, got %d", depth)
	}
	total, n, err := extent(depth, sizes)
	if err != nil {
		return nil, err
	}
	a := &Array[T]{total: total, slots: depth + 1, data: take[T](n, true)}
	if a.slots&depth == 0 {
		a.mask = depth
	}
	a.dims = a.inline[:0]
	st := total
	for _, s := range sizes {
		st /= s
		a.dims = append(a.dims, dim{s, st})
	}
	a.direct = a.isDirect()
	return a, nil
}

// dim is one spatial dimension: its extent and its linear stride in a slot.
type dim struct{ n, stride int }

// isDirect is the value of the direct field.
func (a *Array[T]) isDirect() bool {
	return len(a.dims) == 2 && a.mask != 0 && a.checkShape == nil
}

// extent is the points per time slot of an array with these sizes and the
// elements of its depth+1 slots, or an error where a size is not positive or
// either product would overflow an int (the guard wire's decoder applies).
func extent(depth int, sizes []int) (total, n int, err error) {
	if len(sizes) == 0 {
		return 0, 0, fmt.Errorf("grid: need at least one spatial dimension")
	}
	total = 1
	for i, s := range sizes {
		if s <= 0 {
			return 0, 0, fmt.Errorf("grid: size of dimension %d is %d, must be positive", i, s)
		}
		if total > math.MaxInt/s {
			return 0, 0, fmt.Errorf("grid: spatial extents %v overflow an int", sizes)
		}
		total *= s
	}
	if depth >= math.MaxInt/total {
		return 0, 0, fmt.Errorf("grid: %d points per slot at depth %d overflow an int", total, depth)
	}
	return total, total * (depth + 1), nil
}

// MustNewArray is NewArray, panicking on error.
func MustNewArray[T any](depth int, sizes ...int) *Array[T] {
	a, err := NewArray[T](depth, sizes...)
	if err != nil {
		panic(err)
	}
	return a
}

// NDims returns the number of spatial dimensions.
func (a *Array[T]) NDims() int { return len(a.dims) }

// Size returns the extent of spatial dimension i (same order as Get/Set).
func (a *Array[T]) Size(i int) int { return a.dims[i].n }

// Sizes returns a copy of all spatial extents.
func (a *Array[T]) Sizes() []int {
	s := make([]int, len(a.dims))
	for i, d := range a.dims {
		s[i] = d.n
	}
	return s
}

// Stride returns the linear stride of spatial dimension i within a slot.
func (a *Array[T]) Stride(i int) int { return a.dims[i].stride }

// Slots returns the number of temporal copies (stencil depth + 1).
func (a *Array[T]) Slots() int { return a.slots }

// PointsPerSlot returns the number of spatial points in one time slot.
func (a *Array[T]) PointsPerSlot() int { return a.total }

// Slot returns the backing storage of time step t's slot (t taken modulo
// the number of slots). Phase-2 specialized kernels walk this directly.
func (a *Array[T]) Slot(t int) []T {
	s := a.slot(t)
	return a.data[s*a.total : (s+1)*a.total]
}

// slot is t modulo the slot count, never negative: a mask where the count
// is a power of two, a division otherwise.
func (a *Array[T]) slot(t int) int {
	if a.mask != 0 {
		return t & a.mask
	}
	s := t % a.slots
	if s < 0 {
		s += a.slots
	}
	return s
}

// RegisterBoundary associates the boundary function b with the array.
// Each array has exactly one boundary function at a time; registering a new
// one replaces the old (§2, Register_Boundary).
func (a *Array[T]) RegisterBoundary(b Boundary[T]) { a.boundary = b }

// Get returns the value at time t and spatial index idx. Off-domain
// accesses are served by the registered boundary function; it is an error
// (panic) to read off-domain without one, or with an index of the wrong
// rank. When shape checking is active the access offset is verified against
// the declared stencil shape.
//
// idx never escapes Get, so a caller's variadic index stays on its stack and
// an in-domain access allocates nothing. Where the direct field allows, an
// in-domain index is served by directAt; anything else goes through at.
func (a *Array[T]) Get(t int, idx ...int) T {
	if i, ok := a.directAt(t, idx); ok {
		return a.data[i]
	}
	if i, ok := a.at(t, idx); ok {
		return a.data[i]
	}
	return a.offDomain(t, a.owned.copyOf(idx))
}

// directAt is the element of data that holds time t at an in-domain 2D index
// of a direct array, with no call and no loop; ok is false for any other
// index or array, which at then handles. It inlines into Get and Set.
func (a *Array[T]) directAt(t int, idx []int) (i int, ok bool) {
	if a.direct && len(idx) == 2 {
		if x, y := idx[0], idx[1]; uint(x) < uint(a.inline[0].n) && uint(y) < uint(a.inline[1].n) {
			return (t&a.mask)*a.total + x*a.inline[0].stride + y, true
		}
	}
	return 0, false
}

// at is the element of data that holds time t at spatial index idx, found
// in one pass over idx that tests each coordinate against its extent and
// adds in its stride; ok is false where idx is off-domain. It verifies the
// access first while shape checking is active, and panics on an index of
// the wrong rank.
func (a *Array[T]) at(t int, idx []int) (i int, ok bool) {
	dims := a.checkRank(idx)
	if a.checkShape != nil {
		a.verify(t, idx)
	}
	for k, d := range dims {
		x := idx[k]
		if uint(x) >= uint(d.n) {
			return 0, false
		}
		i += x * d.stride
	}
	return a.slot(t)*a.total + i, true
}

// checkRank returns the array's dimensions, panicking unless idx has one
// coordinate for each.
func (a *Array[T]) checkRank(idx []int) []dim {
	if len(idx) != len(a.dims) {
		rankPanic(idx, len(a.dims))
	}
	return a.dims
}

// rankPanic is out of line so that checkRank stays small enough to inline.
func rankPanic(idx []int, rank int) {
	panic(fmt.Sprintf("grid: index %v has %d coordinates, array has rank %d",
		append([]int(nil), idx...), len(idx), rank))
}

// offDomain serves an off-domain read from the boundary function, which
// receives own, a copy of the index it may keep.
func (a *Array[T]) offDomain(t int, own []int) T {
	if a.boundary == nil {
		panic(fmt.Sprintf("grid: off-domain read at t=%d idx=%v with no boundary function registered", t, own))
	}
	return a.boundary(a, t, own)
}

// idxArena hands out the index copies off-domain reads pass to the boundary
// function. A boundary function may keep its copy, so none is ever reused;
// carving them from shared chunks costs one allocation per chunk instead of
// one per read, and every read along a grid's edge is one.
type idxArena struct {
	mu   sync.Mutex
	free []int
}

// idxChunk is the ints per arena chunk: 512 copies of a 2D index.
const idxChunk = 1024

func (r *idxArena) copyOf(idx []int) []int {
	n := len(idx)
	r.mu.Lock()
	if len(r.free) < n {
		r.free = make([]int, max(idxChunk, n))
	}
	own := r.free[:n:n]
	r.free = r.free[n:]
	r.mu.Unlock()
	copy(own, idx)
	return own
}

// Set stores v at time t and spatial index idx, which must be in-domain and
// of the array's rank. Like Get, it lets no part of idx escape.
func (a *Array[T]) Set(t int, v T, idx ...int) {
	if i, ok := a.directAt(t, idx); ok {
		a.data[i] = v
		return
	}
	i, ok := a.at(t, idx)
	if !ok {
		panic(fmt.Sprintf("grid: off-domain write at t=%d idx=%v", t, append([]int(nil), idx...)))
	}
	a.data[i] = v
}

// GetClamped returns the value at t with each spatial coordinate clamped to
// the domain; a convenience for Neumann-style boundary functions.
func (a *Array[T]) GetClamped(t int, idx ...int) T {
	off := 0
	for k, d := range a.checkRank(idx) {
		off += min(max(idx[k], 0), d.n-1) * d.stride
	}
	return a.data[a.slot(t)*a.total+off]
}

// GetPeriodic returns the value at t with each spatial coordinate wrapped
// modulo the domain; a convenience for periodic boundary functions.
func (a *Array[T]) GetPeriodic(t int, idx ...int) T {
	off := 0
	for k, d := range a.checkRank(idx) {
		x := idx[k] % d.n
		if x < 0 {
			x += d.n
		}
		off += x * d.stride
	}
	return a.data[a.slot(t)*a.total+off]
}

// Fill sets every point of time step t's slot to v.
func (a *Array[T]) Fill(t int, v T) {
	s := a.Slot(t)
	for i := range s {
		s[i] = v
	}
}

// CopyIn copies src (one full slot's worth of points, linearized in index
// order) into time step t's slot — the copy-in half of Pochoir's
// copy-in/copy-out data policy (§2, Rationale).
func (a *Array[T]) CopyIn(t int, src []T) error {
	if len(src) != a.total {
		return fmt.Errorf("grid: CopyIn got %d points, want %d", len(src), a.total)
	}
	copy(a.Slot(t), src)
	return nil
}

// CopyOut copies time step t's slot into dst.
func (a *Array[T]) CopyOut(t int, dst []T) error {
	if len(dst) != a.total {
		return fmt.Errorf("grid: CopyOut got %d points, want %d", len(dst), a.total)
	}
	copy(dst, a.Slot(t))
	return nil
}

// ArrayCheckpoint holds the time slots of an array that are live at a time
// from: the slots-1 slots of times from … from+slots-2, in time order. They
// are all that the steps writing time from+slots-1 and later read (§2: an
// array keeps depth+1 slots, and a step reads depth of them), so the
// remaining slot, which holds time from-1, is dead and is neither copied
// nor restored. A checkpoint
// taken with Array.Checkpoint is immutable after capture: restoring never
// aliases its storage into the live array, so one checkpoint can seed any
// number of retries.
type ArrayCheckpoint[T any] struct {
	sizes []int
	slots int
	from  int
	data  []T
	owned bool // data came from the free list or was allocated here (see Release)
}

// Sizes returns the spatial extents the checkpoint was taken with.
func (cp *ArrayCheckpoint[T]) Sizes() []int { return append([]int(nil), cp.sizes...) }

// Slots returns the temporal slot count (depth + 1) of the array the
// checkpoint was taken from, not the number of slots it holds.
func (cp *ArrayCheckpoint[T]) Slots() int { return cp.slots }

// Data returns the checkpoint's elements, one slot of points after another
// in time order — a read-only view of the underlying storage, used by the
// wire codec to stream a checkpoint to disk without copying it again.
// Callers must not mutate it.
func (cp *ArrayCheckpoint[T]) Data() []T { return cp.data }

// NewArrayCheckpoint reassembles an array checkpoint from its parts — the
// decode half of the wire round trip. data holds held consecutive time
// slots in time order from time from, where held is slots-1 (the live
// slots) or slots (every slot, as a version-1 spill holds them); the
// checkpoint takes ownership of it (the caller must not retain a mutable
// reference).
func NewArrayCheckpoint[T any](sizes []int, slots, from int, data []T) (*ArrayCheckpoint[T], error) {
	if slots < 2 {
		return nil, fmt.Errorf("grid: checkpoint needs >= 2 time slots, got %d", slots)
	}
	total, n, err := extent(slots-1, sizes)
	if err != nil {
		return nil, err
	}
	if len(data) != n-total && len(data) != n {
		return nil, fmt.Errorf("grid: checkpoint data holds %d elements, geometry %v x %d slots implies %d live or %d in all",
			len(data), sizes, slots, n-total, n)
	}
	return &ArrayCheckpoint[T]{
		sizes: append([]int(nil), sizes...),
		slots: slots,
		from:  from,
		data:  data,
	}, nil
}

// Checkpoint copies the slots live at time from (see ArrayCheckpoint) into
// a fresh checkpoint. The caller is responsible for quiescence:
// checkpointing during a run captures a torn state.
func (a *Array[T]) Checkpoint(from int) *ArrayCheckpoint[T] {
	return a.CheckpointInto(nil, from)
}

// CheckpointInto is Checkpoint into cp's storage, which it reuses when cp
// was taken from an array of this geometry and allocates afresh otherwise
// (cp may be nil) from the free list. It returns the checkpoint it filled.
// A run that checkpoints every segment keeps one such buffer and
// overwrites it.
func (a *Array[T]) CheckpointInto(cp *ArrayCheckpoint[T], from int) *ArrayCheckpoint[T] {
	live := (a.slots - 1) * a.total
	if cp == nil || !a.sameGeometry(cp) || len(cp.data) != live {
		// Every element is copied over below, so the storage need not be zeroed.
		cp = &ArrayCheckpoint[T]{sizes: a.Sizes(), slots: a.slots, data: take[T](live, false), owned: true}
	}
	cp.from = from
	for k := 0; k < a.slots-1; k++ {
		copy(cp.data[k*a.total:(k+1)*a.total], a.Slot(from+k))
	}
	return cp
}

// sameGeometry reports whether cp was taken from an array of a's spatial
// extents and temporal depth.
func (a *Array[T]) sameGeometry(cp *ArrayCheckpoint[T]) bool {
	if cp.slots != a.slots || len(cp.sizes) != len(a.dims) {
		return false
	}
	for i, s := range cp.sizes {
		if s != a.dims[i].n {
			return false
		}
	}
	return true
}

// Restore writes the checkpoint's slots back into the array at the times
// they were taken from; the dead slot keeps whatever it holds. The
// checkpoint must come from an array of identical geometry — same spatial
// extents and temporal depth.
func (a *Array[T]) Restore(cp *ArrayCheckpoint[T]) error {
	if cp == nil {
		return fmt.Errorf("grid: Restore of a nil checkpoint")
	}
	if cp.data == nil {
		return fmt.Errorf("grid: Restore of a released checkpoint")
	}
	if cp.slots != a.slots {
		return fmt.Errorf("grid: checkpoint has %d time slots, array has %d", cp.slots, a.slots)
	}
	if !a.sameGeometry(cp) {
		return fmt.Errorf("grid: checkpoint sizes %v differ from array sizes %v", cp.sizes, a.Sizes())
	}
	for k := 0; k*a.total < len(cp.data); k++ {
		copy(a.Slot(cp.from+k), cp.data[k*a.total:(k+1)*a.total])
	}
	return nil
}

// Sprint pretty-prints time step t's slot, one line per row of the
// innermost dimension — the analogue of the paper's overloaded "cout << u".
func (a *Array[T]) Sprint(t int) string {
	var b []byte
	d := len(a.dims)
	inner := a.dims[d-1].n
	s := a.Slot(t)
	for off := 0; off < a.total; off += inner {
		// Blank line between higher-dimensional blocks.
		if off > 0 && d >= 2 && off%(inner*a.dims[d-2].n) == 0 {
			b = append(b, '\n')
		}
		for i := 0; i < inner; i++ {
			if i > 0 {
				b = append(b, ' ')
			}
			b = fmt.Appendf(b, "%v", s[off+i])
		}
		b = append(b, '\n')
	}
	return string(b)
}

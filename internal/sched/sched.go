// Package sched provides the small fork-join runtime used by the execution
// engines. It stands in for the Intel Cilk Plus work-stealing scheduler the
// paper's generated code targets: goroutines multiplexed over GOMAXPROCS
// threads give the same near-greedy fork-join semantics. The engines gate
// spawning by the volume of the *child* about to be spawned, not of the
// zoid being cut: a 3^k-way cut of a zoid just over the grain yields
// children far under it, and a goroutine (a fresh stack, a closure, a
// WaitGroup round trip) per such child costs more than running it — on
// Heat 4 the parallel walk alone was slower than the serial one. Gating
// by the child keeps goroutine creation a small fraction of the work each
// goroutine receives, as base-case coarsening does for Cilk spawns.
//
// Continuous-profiling attribution rides on a runtime guarantee this
// package relies on and pins with a test (see profile_labels_test.go):
// goroutines started with the go statement inherit the spawner's pprof
// label set. Every worker goroutine a Region spawns therefore carries the
// calling goroutine's labels (the gateway's tenant/job/priority, the
// supervisor's engine, the walker's phase) without the scheduler touching
// its hot path — CPU samples on spawned workers self-attribute for free.
package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers returns the current parallelism level (GOMAXPROCS).
func Workers() int { return runtime.GOMAXPROCS(0) }

// PanicError is a panic recovered at a fork-join sync point. The scheduler
// never lets a panic escape on a spawned goroutine (which would kill the
// process): every task — spawned or inlined next to spawned siblings — runs
// under a recover, the first recovered value wins, the remaining siblings
// drain to completion, and the winner is re-raised on the calling goroutine
// once the join completes. Purely serial execution paths are left alone:
// with no goroutines in flight, natural unwinding is already correct and
// costs nothing.
//
// Value holds the original panic value; when a panic crosses several nested
// sync points it is re-raised as the same *PanicError, never re-wrapped, so
// Value and Stack always describe the goroutine that actually panicked.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // stack of the panicking goroutine, from runtime/debug.Stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task panic: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// panicHook, when set, is notified each time a task's panic is first
// captured at a sync point — once per real panic, not once per sync point it
// crosses (nested joins re-raise the same *PanicError, which does not
// re-notify). The flight recorder uses it to stamp scheduler-captured panics
// into the black-box event stream.
var panicHook atomic.Pointer[func(*PanicError)]

// SetPanicHook installs (or, with nil, removes) the captured-panic callback.
// The callback runs on the panicking goroutine while the region's siblings
// drain, so it must not itself panic or block.
func SetPanicHook(fn func(*PanicError)) {
	if fn == nil {
		panicHook.Store(nil)
		return
	}
	panicHook.Store(&fn)
}

// panicSlot collects the first panic of a fork-join region.
type panicSlot struct {
	p atomic.Pointer[PanicError]
}

// capture is deferred inside every spawned task: it records the first panic
// and swallows the rest so the join's WaitGroup always completes.
func (s *panicSlot) capture() { s.record(recover()) }

// record keeps r, a recovered panic value, if it is the region's first,
// preserving an already-wrapped *PanicError from a nested join. A nil r —
// no panic — is ignored.
func (s *panicSlot) record(r any) {
	if r == nil {
		return
	}
	if pe, ok := r.(*PanicError); ok {
		s.p.CompareAndSwap(nil, pe)
		return
	}
	pe := &PanicError{Value: r, Stack: debug.Stack()}
	if hook := panicHook.Load(); hook != nil {
		(*hook)(pe)
	}
	s.p.CompareAndSwap(nil, pe)
}

// rethrow re-raises the captured panic, if any, after the join.
func (s *panicSlot) rethrow() {
	if pe := s.p.Load(); pe != nil {
		panic(pe)
	}
}

// Region is one fork-join region — "cilk_spawn ...; cilk_sync" — for callers
// that decide task by task whether to spawn:
//
//	var rg sched.Region
//	defer rg.Wait()
//	for ... {
//		if big { rg.Go(task) } else { runInline() }
//	}
//
// The value lives on the caller's stack and stays one nil pointer until the
// first Go, so a region that ends up spawning nothing allocates nothing and
// touches no synchronisation. Every spawned task runs under a recover; the
// first panic of the region — in a spawned task, or in the owner's inline
// code once a task is in flight — wins, the in-flight siblings drain, and
// Wait re-raises it as a *PanicError on the owner's goroutine. With nothing
// in flight a panic in the owner unwinds naturally, unwrapped, at no cost.
// What a caller spawns and inlines is its own to count.
type Region struct {
	st *regionState // shared with the spawned goroutines; nil until the first Go
}

type regionState struct {
	wg    sync.WaitGroup
	first panicSlot
}

// Go runs fn on a fresh goroutine that Wait joins.
func (r *Region) Go(fn func()) {
	if r.st == nil {
		r.st = new(regionState)
	}
	r.st.wg.Add(1)
	go r.st.run(fn)
}

func (st *regionState) run(fn func()) {
	defer st.wg.Done()
	defer st.first.capture()
	fn()
}

// Wait is the region's sync point. It must be deferred, directly, by the
// function that owns the region, before the first Go: that is what lets it
// recover a panic of the owner's inline code while tasks are in flight.
func (r *Region) Wait() {
	st := r.st
	if st == nil {
		return // nothing in flight: a panic keeps unwinding, untouched
	}
	st.first.record(recover())
	st.wg.Wait()
	st.first.rethrow()
}

// For divides the half-open index range [lo, hi) into contiguous chunks of
// at least grain indices and runs body on each chunk, in parallel when
// parallel is true. It is the "cilk_for" of the LOOPS baseline. body
// receives a half-open subrange [i0, i1).
func For(parallel bool, lo, hi, grain int, body func(i0, i1 int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if !parallel || n <= grain {
		body(lo, hi)
		return
	}
	// Choose a chunk count that keeps every worker busy without drowning
	// the scheduler: ~4 chunks per worker, bounded below by the grain.
	chunks := Workers() * 4
	if chunks > (n+grain-1)/grain {
		chunks = (n + grain - 1) / grain
	}
	if chunks <= 1 {
		body(lo, hi)
		return
	}
	size := (n + chunks - 1) / chunks
	var rg Region
	defer rg.Wait()
	start := lo
	for ; start+size < hi; start += size {
		s := start
		rg.Go(func() { body(s, s+size) })
	}
	body(start, hi) // the last chunk runs inline
}

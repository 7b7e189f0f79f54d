// Package profile is the continuous-profiling subsystem: a background
// profiler that takes fixed-window CPU profiles and periodic heap
// snapshots into a bounded in-memory ring, a dependency-free pprof
// decoder, and an analyzer that attributes CPU to stencil semantics via
// goroutine labels (tenant, job, priority, engine, phase).
//
// The paper's central performance claim is that cache-oblivious
// trapezoidal decomposition keeps the CPU in the base-case kernels rather
// than in scheduling overhead. The rest of the observability stack can say
// what happened and how long it took; this package answers where the CPU
// actually went, and its regression sentinel (diff.go) flags when the
// kernel share erodes.
//
// Everything is off by default and costs one atomic load per
// instrumentation point when disarmed, mirroring the flight recorder's
// discipline.
package profile

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// armed reports whether a CPU capture window is currently open. Hot-path
// instrumentation (the walker's per-base-case phase labels) is gated on
// it, so the disarmed cost is a single atomic load.
var armed atomic.Bool

// Armed reports whether a CPU capture window is in flight. The walker
// consults it before applying per-base-case phase labels.
func Armed() bool { return armed.Load() }

// Precomputed label sets for the walker's base-case dispatch, so the armed
// path pays no label construction.
var (
	// LabelsBase marks CPU spent in interior base-case kernels.
	LabelsBase = pprof.Labels("phase", "base")
	// LabelsBoundary marks CPU spent in boundary-clone kernels.
	LabelsBoundary = pprof.Labels("phase", "boundary")
	// LabelsWalk marks a whole engine run; base/boundary override it
	// sample by sample while a capture is armed.
	LabelsWalk = pprof.Labels("phase", "walk")
	// LabelsCheckpoint marks checkpoint/spill/restore work in the
	// supervisor.
	LabelsCheckpoint = pprof.Labels("phase", "checkpoint")
	// LabelsVerify marks shadow-verification work in the supervisor.
	LabelsVerify = pprof.Labels("phase", "verify")
)

// captureMu serializes CPU capture process-wide: the runtime allows only
// one active CPU profile, so the background loop, CaptureNow, and any
// second Profiler must take turns.
var captureMu sync.Mutex

// Counter is the minimal metrics hook, satisfied by *metrics.Counter. A
// nil Counter is legal and ignored.
type Counter interface {
	Add(delta int64)
}

// Instruments holds the profiler's self-metrics. Any field may be nil.
type Instruments struct {
	Captures      Counter // completed CPU capture windows
	HeapCaptures  Counter // completed heap snapshots
	Evictions     Counter // ring evictions under retention pressure
	DecodeErrors  Counter // captures whose pprof payload failed to decode
	CaptureErrors Counter // windows that could not start (profiler busy)
}

func add(c Counter, d int64) {
	if c != nil {
		c.Add(d)
	}
}

// Config tunes a Profiler. The zero value is usable: 10s windows, a 10s
// gap between windows (50% duty cycle), a ring of 8 captures, a heap
// snapshot every 4th window.
type Config struct {
	// Window is the length of each CPU capture.
	Window time.Duration
	// Interval is the idle gap between capture windows. Zero means
	// "equal to Window"; negative means back-to-back windows.
	Interval time.Duration
	// Retain bounds the capture ring; the oldest capture is evicted.
	Retain int
	// HeapEvery takes a heap snapshot after every Nth CPU window.
	// Zero means every 4th; negative disables heap snapshots.
	HeapEvery int
	// TopN bounds the per-report function table (default 20).
	TopN int
	// Inst receives self-metrics. Nil disables them.
	Inst *Instruments
	// OnReport, when non-nil, is called with each window's analyzed
	// report from the capture goroutine (never concurrently). The
	// gateway uses it to export per-tenant CPU seconds.
	OnReport func(*Report)
	// Logf, when non-nil, receives capture-loop diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Interval == 0 {
		c.Interval = c.Window
	}
	if c.Interval < 0 {
		c.Interval = 0
	}
	if c.Retain <= 0 {
		c.Retain = 8
	}
	if c.HeapEvery == 0 {
		c.HeapEvery = 4
	}
	if c.TopN <= 0 {
		c.TopN = 20
	}
	return c
}

// Capture is one ring entry: a raw (gzipped pprof) payload plus, for CPU
// captures, its analyzed report.
type Capture struct {
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"` // "cpu" or "heap"
	Raw    []byte    `json:"-"`
	Report *Report   `json:"report,omitempty"`
}

// Profiler owns the background capture loop and the bounded ring.
type Profiler struct {
	cfg Config

	mu   sync.Mutex
	ring []Capture

	started   atomic.Bool
	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a Profiler; call Start to begin capturing.
func New(cfg Config) *Profiler {
	return &Profiler{
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// FromEnv builds a Profiler from the POCHOIR_PROFILE environment variable:
// unset, "0", or "false" returns nil (profiling off); a duration value
// ("250ms") sets the capture window; any other non-empty value enables the
// defaults. Mirrors the flight recorder's env gating.
func FromEnv() *Profiler {
	v := os.Getenv("POCHOIR_PROFILE")
	switch v {
	case "", "0", "false", "off":
		return nil
	}
	var cfg Config
	if d, err := time.ParseDuration(v); err == nil && d > 0 {
		cfg.Window = d
	}
	return New(cfg)
}

// SetInstruments installs the self-metric hooks, replacing any configured
// at construction. Like SetOnReport it must be called before Start. The
// gateway uses it to point a handed-in profiler at its shared registry.
func (p *Profiler) SetInstruments(i *Instruments) { p.cfg.Inst = i }

// SetOnReport installs fn as a report callback, chaining after any
// callback already configured. It must be called before Start: the
// capture goroutine reads the callback without synchronization. The
// gateway uses it to export per-tenant CPU from a profiler it received
// already constructed.
func (p *Profiler) SetOnReport(fn func(*Report)) {
	if fn == nil {
		return
	}
	if prev := p.cfg.OnReport; prev != nil {
		p.cfg.OnReport = func(r *Report) { prev(r); fn(r) }
		return
	}
	p.cfg.OnReport = fn
}

// Start launches the background capture loop. Idempotent.
func (p *Profiler) Start() {
	p.startOnce.Do(func() {
		p.started.Store(true)
		go p.loop()
	})
}

// Stop ends the capture loop and waits for an in-flight window to finish.
// Idempotent; safe to call without Start.
func (p *Profiler) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	if p.started.Load() {
		<-p.done
	}
}

func (p *Profiler) loop() {
	defer close(p.done)
	windows := 0
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		if rep, err := p.captureWindow(p.cfg.Window, p.stop); err != nil {
			add(p.cfg.Inst.instOr().CaptureErrors, 1)
			p.logf("profile: capture window failed: %v", err)
			// Back off before retrying: the usual cause is another
			// CPU profile (e.g. go test -cpuprofile) being active.
			if !sleepOrStop(p.cfg.Window, p.stop) {
				return
			}
		} else if rep != nil {
			windows++
			if p.cfg.OnReport != nil {
				p.cfg.OnReport(rep)
			}
			if p.cfg.HeapEvery > 0 && windows%p.cfg.HeapEvery == 0 {
				p.captureHeap()
			}
		}
		if !sleepOrStop(p.cfg.Interval, p.stop) {
			return
		}
	}
}

// instOr lets nil *Instruments flow through the add helper.
func (i *Instruments) instOr() *Instruments {
	if i == nil {
		return &Instruments{}
	}
	return i
}

func (p *Profiler) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// captureWindow opens one CPU capture window, arms the hot-path labels for
// its duration, then decodes and files the result. A nil stop channel
// makes the window uninterruptible.
func (p *Profiler) captureWindow(window time.Duration, stop <-chan struct{}) (*Report, error) {
	captureMu.Lock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		captureMu.Unlock()
		return nil, err
	}
	armed.Store(true)
	sleepOrStop(window, stop)
	pprof.StopCPUProfile()
	armed.Store(false)
	captureMu.Unlock()

	inst := p.cfg.Inst.instOr()
	rep, err := Analyze(buf.Bytes(), p.cfg.TopN)
	if err != nil {
		add(inst.DecodeErrors, 1)
		return nil, fmt.Errorf("analyze captured profile: %w", err)
	}
	rep.CapturedAt = time.Now().UTC()
	rep.DurationNS = int64(window)
	add(inst.Captures, 1)
	p.push(Capture{At: rep.CapturedAt, Kind: "cpu", Raw: append([]byte(nil), buf.Bytes()...), Report: rep})
	return rep, nil
}

// CaptureNow takes one synchronous CPU capture window of the given length
// (the configured Window when d <= 0), independent of the background loop.
func (p *Profiler) CaptureNow(d time.Duration) (*Report, error) {
	if d <= 0 {
		d = p.cfg.Window
	}
	return p.captureWindow(d, nil)
}

// CaptureDuring opens a capture window for exactly the duration of f: the
// window brackets one run instead of a fixed wall-clock span. Benchlab
// uses it to attribute a single measured repetition.
func (p *Profiler) CaptureDuring(f func()) (*Report, error) {
	captureMu.Lock()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		captureMu.Unlock()
		add(p.cfg.Inst.instOr().CaptureErrors, 1)
		return nil, err
	}
	armed.Store(true)
	start := time.Now()
	f()
	elapsed := time.Since(start)
	pprof.StopCPUProfile()
	armed.Store(false)
	captureMu.Unlock()

	inst := p.cfg.Inst.instOr()
	rep, err := Analyze(buf.Bytes(), p.cfg.TopN)
	if err != nil {
		add(inst.DecodeErrors, 1)
		return nil, fmt.Errorf("analyze captured profile: %w", err)
	}
	rep.CapturedAt = time.Now().UTC()
	rep.DurationNS = elapsed.Nanoseconds()
	add(inst.Captures, 1)
	p.push(Capture{At: rep.CapturedAt, Kind: "cpu", Raw: append([]byte(nil), buf.Bytes()...), Report: rep})
	return rep, nil
}

func (p *Profiler) captureHeap() {
	hp := pprof.Lookup("heap")
	if hp == nil {
		return
	}
	var buf bytes.Buffer
	if err := hp.WriteTo(&buf, 0); err != nil {
		p.logf("profile: heap snapshot failed: %v", err)
		return
	}
	add(p.cfg.Inst.instOr().HeapCaptures, 1)
	p.push(Capture{At: time.Now().UTC(), Kind: "heap", Raw: buf.Bytes()})
}

func (p *Profiler) push(c Capture) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ring) >= p.cfg.Retain {
		n := copy(p.ring, p.ring[1:])
		p.ring = p.ring[:n]
		add(p.cfg.Inst.instOr().Evictions, 1)
	}
	p.ring = append(p.ring, c)
}

// Snapshot returns a copy of the ring, oldest first.
func (p *Profiler) Snapshot() []Capture {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Capture(nil), p.ring...)
}

// Latest returns the newest capture of the given kind, or nil.
func (p *Profiler) Latest(kind string) *Capture {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.ring) - 1; i >= 0; i-- {
		if p.ring[i].Kind == kind {
			c := p.ring[i]
			return &c
		}
	}
	return nil
}

// Aggregate merges every CPU report currently in the ring; nil when none.
func (p *Profiler) Aggregate() *Report {
	p.mu.Lock()
	var reps []*Report
	for _, c := range p.ring {
		if c.Kind == "cpu" && c.Report != nil {
			reps = append(reps, c.Report)
		}
	}
	p.mu.Unlock()
	return Merge(reps)
}

// global is the process-wide profiler hook the post-mortem path reads so
// crash bundles can embed the incident window's attribution without the
// flight package importing this one's owner.
var global atomic.Pointer[Profiler]

// SetGlobal installs (or, with nil, clears) the process-wide profiler.
func SetGlobal(p *Profiler) { global.Store(p) }

// Global returns the process-wide profiler, or nil.
func Global() *Profiler { return global.Load() }

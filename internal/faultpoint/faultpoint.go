// Package faultpoint provides deterministic fault injection for the
// execution engine. The walker exposes two instrumented sites — one before
// every decomposition decision, one before every base-case invocation — and
// tests arm them to trigger panics or stalls at chosen decomposition depths,
// exercising the engine's failure paths (panic isolation, cancellation,
// run-state poisoning) without bespoke hooks in production code.
//
// The design mirrors freebsd/etcd-style failpoints scaled down to this
// engine's needs:
//
//   - Disarmed cost is a single atomic load: every site is guarded by
//     `if faultpoint.Armed() { faultpoint.Visit(site, depth) }`, and Armed
//     reads one package-level counter. No map lookups, no locks, no
//     allocation on the hot path.
//
//   - Armed behaviour is fully deterministic: a Spec selects the action
//     (panic or sleep), the decomposition depth at which to fire, and how
//     many matching visits to skip first, so a test can place a fault at
//     "the third base case at depth 2" and get it every run.
//
//   - Failpoints arm programmatically (Arm/DisarmAll, used by tests) or
//     from the POCHOIR_FAULTPOINTS environment variable (used to
//     fault-inject unmodified binaries such as examples/quickstart).
//
// The environment spec grammar is a semicolon-separated list of
//
//	site=action[:key=value[,key=value...]]
//
// where site is "walker/cut" or "walker/base", action is "panic", "sleep",
// or "p" (probabilistic panic), and keys are depth (decomposition depth to
// fire at, default any), after (matching visits to skip first, default 0),
// times (matching visits to fire on before auto-disarming, default
// unlimited), msg (panic value), dur (sleep duration, Go syntax), and prob
// (fire each matching visit only with this probability — the soak-test
// mode; the "p" action takes the probability as its first option). For
// example:
//
//	POCHOIR_FAULTPOINTS='walker/base=panic:depth=2,after=3,msg=boom'
//	POCHOIR_FAULTPOINTS='walker/cut=sleep:dur=50ms'
//	POCHOIR_FAULTPOINTS='walker/base=p:0.01'
package faultpoint

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site identifies an instrumented location in the engine.
type Site string

const (
	// SiteCut fires at the top of the walker's recursion, before a zoid is
	// decomposed (or handed to the base case).
	SiteCut Site = "walker/cut"
	// SiteBase fires immediately before a base-case clone is invoked.
	SiteBase Site = "walker/base"
)

// Kind selects what an armed failpoint does when it fires.
type Kind int

const (
	// KindPanic panics with the Spec's Panic value (a *Injected by
	// default), modelling a crashing user kernel or engine bug.
	KindPanic Kind = iota
	// KindSleep blocks the visiting goroutine for the Spec's Sleep
	// duration, modelling a stalled kernel; used to bound cancellation
	// latency deterministically.
	KindSleep
)

// AnyDepth matches every decomposition depth.
const AnyDepth = -1

// Spec configures an armed failpoint.
type Spec struct {
	// Kind is the action taken when the failpoint fires.
	Kind Kind
	// Depth restricts firing to visits at exactly this decomposition
	// depth; AnyDepth (the default via DefaultSpec helpers) matches all.
	Depth int
	// After skips the first After matching visits before firing.
	After int
	// Times bounds how many times the failpoint fires before disarming
	// itself; 0 means unlimited.
	Times int
	// Panic is the value passed to panic for KindPanic; nil panics with a
	// *Injected describing the site.
	Panic any
	// Sleep is the stall duration for KindSleep.
	Sleep time.Duration
	// Gate, when non-nil, makes KindSleep block until the channel is closed
	// instead of for a duration: a test holds visitors at the site, sets up
	// the state it wants them to find, and releases them. It has no
	// environment-grammar form.
	Gate <-chan struct{}
	// Prob, when positive, makes each matching visit fire only with this
	// probability (the soak-test mode); zero keeps the fully deterministic
	// behaviour. Visits that lose the roll count toward After but not
	// Times.
	Prob float64
	// Rand overrides the probability source for deterministic tests; nil
	// uses the package's seeded generator.
	Rand func() float64
}

// Injected is the default panic value of a fired KindPanic failpoint.
type Injected struct {
	Site  Site
	Depth int
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faultpoint: injected panic at %s depth %d", e.Site, e.Depth)
}

// state is the registry entry of one armed site.
type state struct {
	spec   Spec
	visits int // matching visits so far (including skipped and fired)
	fired  int // times the action ran
}

var (
	armed atomic.Int32 // number of armed sites; the only disarmed-path cost

	mu     sync.Mutex
	points = map[Site]*state{}
	// probRNG drives probabilistic firing; guarded by mu (Visit holds it
	// when rolling). A fixed seed keeps soak runs reproducible for a given
	// visit sequence.
	probRNG = rand.New(rand.NewSource(0x9e3779b9))
)

// Armed reports whether any failpoint is armed. Instrumented sites gate
// Visit on it so disarmed binaries pay one atomic load per site.
func Armed() bool { return armed.Load() != 0 }

// observer, when set, is notified of every firing failpoint just before its
// action runs; the flight recorder uses it to stamp injected faults into the
// black-box event stream. An atomic pointer so Visit never takes the registry
// lock around the callback.
var observer atomic.Pointer[func(site Site, depth int)]

// SetObserver installs (or, with nil, removes) the fired-failpoint callback.
// The callback runs on the visiting goroutine, after the firing decision and
// before the action (panic or sleep), so it must not itself panic or block.
func SetObserver(fn func(site Site, depth int)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fn)
}

// Arm installs (or replaces) the failpoint at site.
func Arm(site Site, spec Spec) {
	mu.Lock()
	if _, ok := points[site]; !ok {
		armed.Add(1)
	}
	points[site] = &state{spec: spec}
	mu.Unlock()
}

// DisarmAll removes every armed failpoint.
func DisarmAll() {
	mu.Lock()
	for site := range points {
		delete(points, site)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Fired returns how many times the failpoint at site has fired since it was
// armed; 0 when the site is not armed.
func Fired(site Site) int {
	mu.Lock()
	defer mu.Unlock()
	if st, ok := points[site]; ok {
		return st.fired
	}
	return 0
}

// Visit is called by an instrumented site with its decomposition depth.
// Callers must gate on Armed(); Visit itself takes the registry lock, which
// is acceptable on the (test-only) armed path. The action — panic or sleep —
// runs outside the lock so stalled goroutines do not serialize the registry.
func Visit(site Site, depth int) {
	mu.Lock()
	st, ok := points[site]
	if !ok {
		mu.Unlock()
		return
	}
	if st.spec.Depth != AnyDepth && st.spec.Depth != depth {
		mu.Unlock()
		return
	}
	st.visits++
	if st.visits <= st.spec.After {
		mu.Unlock()
		return
	}
	if p := st.spec.Prob; p > 0 {
		roll := st.spec.Rand
		if roll == nil {
			roll = probRNG.Float64
		}
		if roll() >= p {
			mu.Unlock()
			return
		}
	}
	spec := st.spec
	st.fired++
	if spec.Times > 0 && st.fired >= spec.Times {
		delete(points, site)
		armed.Add(-1)
	}
	mu.Unlock()

	if ob := observer.Load(); ob != nil {
		(*ob)(site, depth)
	}
	switch spec.Kind {
	case KindSleep:
		if spec.Gate != nil {
			<-spec.Gate
		} else {
			time.Sleep(spec.Sleep)
		}
	default:
		v := spec.Panic
		if v == nil {
			v = &Injected{Site: site, Depth: depth}
		}
		panic(v)
	}
}

// ArmFromSpec parses and arms failpoints from an environment-style spec
// string (see the package comment for the grammar). An empty spec is a
// no-op. On a parse error nothing is armed.
func ArmFromSpec(env string) error {
	env = strings.TrimSpace(env)
	if env == "" {
		return nil
	}
	type entry struct {
		site Site
		spec Spec
	}
	var entries []entry
	for _, part := range strings.Split(env, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, rest, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("faultpoint: %q: want site=action", part)
		}
		switch Site(site) {
		case SiteCut, SiteBase:
		default:
			return fmt.Errorf("faultpoint: unknown site %q", site)
		}
		action, opts, _ := strings.Cut(rest, ":")
		spec := Spec{Depth: AnyDepth}
		switch action {
		case "panic":
			spec.Kind = KindPanic
		case "sleep":
			spec.Kind = KindSleep
		case "p":
			// Probabilistic panic: the first option is the probability
			// itself (site=p:0.01), further options follow as key=value.
			spec.Kind = KindPanic
			if opts == "" {
				return fmt.Errorf("faultpoint: action p needs a probability (site=p:0.01)")
			}
		default:
			return fmt.Errorf("faultpoint: unknown action %q", action)
		}
		if opts != "" {
			for i, kv := range strings.Split(opts, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					if action == "p" && i == 0 {
						p, err := strconv.ParseFloat(kv, 64)
						if err != nil || p <= 0 || p > 1 {
							return fmt.Errorf("faultpoint: probability %q: want a float in (0,1]", kv)
						}
						spec.Prob = p
						continue
					}
					return fmt.Errorf("faultpoint: option %q: want key=value", kv)
				}
				switch k {
				case "depth":
					n, err := strconv.Atoi(v)
					if err != nil {
						return fmt.Errorf("faultpoint: depth %q: %v", v, err)
					}
					spec.Depth = n
				case "after":
					n, err := strconv.Atoi(v)
					if err != nil {
						return fmt.Errorf("faultpoint: after %q: %v", v, err)
					}
					spec.After = n
				case "times":
					n, err := strconv.Atoi(v)
					if err != nil {
						return fmt.Errorf("faultpoint: times %q: %v", v, err)
					}
					spec.Times = n
				case "msg":
					spec.Panic = v
				case "prob":
					p, err := strconv.ParseFloat(v, 64)
					if err != nil || p <= 0 || p > 1 {
						return fmt.Errorf("faultpoint: prob %q: want a float in (0,1]", v)
					}
					spec.Prob = p
				case "dur":
					d, err := time.ParseDuration(v)
					if err != nil {
						return fmt.Errorf("faultpoint: dur %q: %v", v, err)
					}
					spec.Sleep = d
				default:
					return fmt.Errorf("faultpoint: unknown option %q", k)
				}
			}
		}
		if action == "p" && spec.Prob == 0 {
			return fmt.Errorf("faultpoint: action p needs a probability first (site=p:0.01)")
		}
		entries = append(entries, entry{site: Site(site), spec: spec})
	}
	for _, e := range entries {
		Arm(e.site, e.spec)
	}
	return nil
}

// EnvVar is the environment variable consulted at process start.
const EnvVar = "POCHOIR_FAULTPOINTS"

func init() {
	// Arm from the environment so unmodified binaries can be
	// fault-injected. A malformed spec is reported on stderr rather than
	// silently ignored, but never prevents startup.
	if err := ArmFromSpec(os.Getenv(EnvVar)); err != nil {
		fmt.Fprintf(os.Stderr, "pochoir: ignoring %s: %v\n", EnvVar, err)
	}
}

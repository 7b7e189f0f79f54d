package core

import (
	"context"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"pochoir/internal/faultpoint"
	"pochoir/internal/zoid"
)

// recProbe is a recording Probe: one run's event counts, shared by the run's
// goroutine and every task, and a stack of open spans per goroutine so each
// End can be checked to close the innermost one.
type recProbe struct {
	*recCounts
	open []int // this goroutine's open span tokens
}

type recCounts struct {
	runs, ends      atomic.Int64
	err             error // what RunEnd saw
	cuts            [CutTime + 1]atomic.Int64
	fanout          atomic.Int64 // subzoids of every hyperspace cut
	bases, points   atomic.Int64
	spawns, inlines atomic.Int64
	tasks, released atomic.Int64
	cancels, panics atomic.Int64
	unclosed        atomic.Int64 // spans still open at Release or RunEnd
	bad             atomic.Int64 // Ends not closing the innermost span, empty bases
	next            atomic.Int64 // span token source
}

func newRecProbe() *recProbe { return &recProbe{recCounts: new(recCounts)} }

// zoids is every zoid the run cut or ran as a base case.
func (c *recCounts) zoids() int64 {
	n := c.bases.Load()
	for i := range c.cuts {
		n += c.cuts[i].Load()
	}
	return n
}

func (p *recProbe) push() int {
	tok := int(p.next.Add(1))
	p.open = append(p.open, tok)
	return tok
}

func (p *recProbe) RunStart(context.Context, Algorithm, int, int) { p.runs.Add(1) }

func (p *recProbe) RunEnd(err error) {
	p.err = err
	p.ends.Add(1)
	p.unclosed.Add(int64(len(p.open)))
}

func (p *recProbe) Cut(kind CutKind, arg, fanout int) int {
	p.cuts[kind].Add(1)
	p.fanout.Add(int64(fanout))
	return p.push()
}

func (p *recProbe) Base(t0, t1, lo0, hi0 int, interior bool, vol int64) int {
	p.bases.Add(1)
	p.points.Add(vol)
	if t1 <= t0 || vol <= 0 {
		p.bad.Add(1)
	}
	return p.push()
}

func (p *recProbe) End(span int) {
	n := len(p.open)
	if n == 0 || p.open[n-1] != span {
		p.bad.Add(1)
		return
	}
	p.open = p.open[:n-1]
}

func (p *recProbe) Spawned(int)   { p.spawns.Add(1) }
func (p *recProbe) Inlined(n int) { p.inlines.Add(int64(n)) }

func (p *recProbe) Task() Probe {
	p.tasks.Add(1)
	return &recProbe{recCounts: p.recCounts}
}

func (p *recProbe) Release() {
	p.released.Add(1)
	p.unclosed.Add(int64(len(p.open)))
}

func (p *recProbe) Cancelled()          { p.cancels.Add(1) }
func (p *recProbe) Panicked(*zoid.Zoid) { p.panics.Add(1) }

// TestProbeSeesEnginePanic: a panic on the run's goroutine outside any base
// case — a cut-site fault before anything spawned — reaches the probe once,
// as an engine panic, and RunEnd sees the converted error.
func TestProbeSeesEnginePanic(t *testing.T) {
	defer faultpoint.DisarmAll()
	faultpoint.Arm(faultpoint.SiteCut, faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, Times: 1})
	p := newRecProbe()
	w := newTestWalker([]int{32, 32}, true, TRAP, func(zoid.Zoid) {})
	w.Probe = p
	err := w.Run(1, 9)
	if err == nil || p.err != err {
		t.Fatalf("Run returned %v, RunEnd saw %v", err, p.err)
	}
	if p.panics.Load() != 1 || p.bases.Load() != 0 {
		t.Fatalf("%d panics and %d bases reported, want 1 and 0", p.panics.Load(), p.bases.Load())
	}
}

// TestCoreImportsNoObservability pins the seam: the package's non-test files
// import nothing from internal/ but the fault sites, the scheduler and the
// geometry. Every sink is composed outside.
func TestCoreImportsNoObservability(t *testing.T) {
	allowed := map[string]bool{
		"pochoir/internal/faultpoint": true,
		"pochoir/internal/sched":      true,
		"pochoir/internal/zoid":       true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "pochoir" || strings.HasPrefix(path, "pochoir/")) && !allowed[path] {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

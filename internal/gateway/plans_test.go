package gateway

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/compiler"
	"pochoir/internal/trace"
)

// waveSpec has two arrays, one of them read-only, and depth 2, so a job
// initializes and checksums several arrays and slots.
const waveSpec = `stencil wave { dims: 2; array u; array c; boundary u: clamp; boundary c: periodic;
kernel { u(t+1,x,y) = 2*u(t,x,y) - u(t-1,x,y) + 0.1*c(t,x,y)*(u(t,x+1,y) + u(t,x-1,y) - 2*u(t,x,y)); } }`

// runOne submits s to g and waits for it to finish cleanly.
func runOne(t testing.TB, g *Gateway, s Submission) *JobStatus {
	t.Helper()
	st, serr := g.Submit("t", s)
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fin, err := g.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait %s: %v", st.ID, err)
	}
	if fin.State != StateDone {
		t.Fatalf("job %s: %+v", st.ID, fin)
	}
	return fin
}

// TestChecksumPinned: seeding and checksumming read and write the slots in
// place, and give the checksums the staging-buffer versions printed.
func TestChecksumPinned(t *testing.T) {
	for _, c := range []struct {
		sub  Submission
		want string
	}{
		{sub(64, 128, 7), "eaa84ccd140ac1ed"},
		{Submission{Spec: waveSpec, Sizes: []int{24, 17}, Steps: 9, Seed: 3}, "dc7cb1bb54b87fe1"},
	} {
		g := New(Config{Workers: 1})
		if got := runOne(t, g, c.sub).Checksum; got != c.want {
			t.Errorf("checksum of %.20q… = %s, want %s", c.sub.Spec, got, c.want)
		}
		g.Close()
	}
}

// fakePlan is a plan for the cache's own bookkeeping; nothing compiles it.
func fakePlan(src string) *plan { return &plan{src: src} }

// TestPlanCacheEvictsAtBound: past planCacheEntries plans the least
// recently used goes, and the byte bound holds on its own.
func TestPlanCacheEvictsAtBound(t *testing.T) {
	var c planCache
	for i := 0; i < planCacheEntries; i++ {
		c.put(fakePlan(fmt.Sprintf("spec %d", i)))
	}
	if c.get("spec 0") == nil { // now the most recently used
		t.Fatal("spec 0 missing from a cache at its bound")
	}
	c.put(fakePlan("one more"))
	if n := c.lru.Len(); n != planCacheEntries {
		t.Fatalf("%d plans cached, bound is %d", n, planCacheEntries)
	}
	if c.get("spec 1") != nil {
		t.Fatal("the least recently used plan survived an insert past the bound")
	}
	for _, src := range []string{"spec 0", "spec 2", "one more"} {
		if c.get(src) == nil {
			t.Fatalf("%q evicted out of order", src)
		}
	}

	var b planCache
	big := strings.Repeat("x", planCacheBytes/2)
	for i := 0; i < 3; i++ {
		b.put(fakePlan(fmt.Sprint(i) + big))
	}
	if n := b.lru.Len(); n != 1 || b.bytes > planCacheBytes {
		t.Fatalf("%d plans of %d bytes cached, byte bound is %d", n, b.bytes, planCacheBytes)
	}
	if b.get("2"+big) == nil {
		t.Fatal("the newest plan was evicted")
	}
}

// TestPlanCacheConfirmsSource: with every source hashing alike, a second
// spec is compiled for itself, not served the first one's plan.
func TestPlanCacheConfirmsSource(t *testing.T) {
	collide := func(string) uint64 { return 1 }
	var c planCache
	c.hash = collide
	c.put(fakePlan("a"))
	if c.get("b") != nil {
		t.Fatal("a colliding source was served another source's plan")
	}

	other := strings.Replace(testSpec, "0.25*u(t,x-1)", "0.125*u(t,x-1)", 1)
	want := make(map[string]string)
	for _, spec := range []string{testSpec, other} {
		g := New(Config{Workers: 1})
		want[spec] = runOne(t, g, Submission{Spec: spec, Sizes: []int{64}, Steps: 16, Seed: 1}).Checksum
		g.Close()
	}
	if want[testSpec] == want[other] {
		t.Fatal("the two specs compute the same thing; the test shows nothing")
	}
	g := New(Config{Workers: 1})
	defer g.Close()
	g.plans.hash = collide
	for _, spec := range []string{testSpec, other, testSpec} {
		if got := runOne(t, g, Submission{Spec: spec, Sizes: []int{64}, Steps: 16, Seed: 1}).Checksum; got != want[spec] {
			t.Fatalf("under a hash collision a job computed %s, want %s", got, want[spec])
		}
	}
}

// TestPlanCacheConcurrentSubmissions: jobs of one spec submitted at once
// share one plan and each computes what it computes alone.
func TestPlanCacheConcurrentSubmissions(t *testing.T) {
	const n = 8
	want := make([]string, n)
	for i := range want {
		g := New(Config{Workers: 1})
		want[i] = runOne(t, g, sub(16, 96, int64(i))).Checksum
		g.Close()
	}
	g := New(Config{Workers: 2, QueueDepth: 2 * n, TenantMaxConcurrent: 2 * n})
	defer g.Close()
	var wg sync.WaitGroup
	got := make([]*JobStatus, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st, serr := g.Submit("t", sub(16, 96, int64(i))); serr == nil {
				got[i], _ = g.Wait(context.Background(), st.ID)
			}
		}()
	}
	wg.Wait()
	for i := range want {
		if got[i] == nil || got[i].Checksum != want[i] {
			t.Errorf("seed %d: concurrent job %+v, alone checksum %s", i, got[i], want[i])
		}
	}
	if n := g.plans.lru.Len(); n != 1 {
		t.Fatalf("%d plans cached for one spec", n)
	}
}

// TestPlanCacheSkipsBadSpecs: a spec that fails to compile is refused every
// time it is sent, and never stored.
func TestPlanCacheSkipsBadSpecs(t *testing.T) {
	g := New(Config{Workers: 1})
	defer g.Close()
	for _, spec := range []string{"stencil broken {", strings.Repeat(" ", compiler.MaxSourceBytes+1), "stencil broken {"} {
		if _, serr := g.Submit("t", Submission{Spec: spec, Sizes: []int{8}, Steps: 1}); serr == nil {
			t.Fatalf("bad spec %.20q admitted", spec)
		}
	}
	if n := g.plans.lru.Len(); n != 0 {
		t.Fatalf("%d plans cached from bad specs", n)
	}
}

// TestPlanCacheHitRecordsCompileSpan: a job whose plan is cached still has
// a compile span with the spec's size and token count.
func TestPlanCacheHitRecordsCompileSpan(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 5, SampleProb: 1.01}) // keep every trace
	g := New(Config{Workers: 1, Trace: tracer})
	defer g.Close()
	var spans []*trace.Span
	for seed := int64(1); seed <= 2; seed++ {
		fin := runOne(t, g, sub(8, 32, seed))
		id, err := trace.ParseTraceID(fin.TraceID)
		if err != nil {
			t.Fatal(err)
		}
		tr := tracer.Get(id)
		if tr == nil {
			t.Fatalf("trace of job %s not retained", fin.ID)
		}
		sp := findSpan(tr, "compile")
		if sp == nil || sp.Status != trace.StatusOK {
			t.Fatalf("job %s: compile span %+v", fin.ID, sp)
		}
		spans = append(spans, sp)
	}
	for i, want := range []string{"miss", "hit"} {
		if got := spans[i].Attr("plan_cache"); got != want {
			t.Errorf("job %d: plan_cache = %q, want %q", i+1, got, want)
		}
	}
	for _, key := range []string{"tokens", "source_bytes"} {
		if a, b := spans[0].Attr(key), spans[1].Attr(key); a == "" || a != b {
			t.Errorf("%s: miss %q, hit %q", key, a, b)
		}
	}
	if got := spans[1].Attr("source_bytes"); got != fmt.Sprint(len(testSpec)) {
		t.Errorf("source_bytes = %s, want %d", got, len(testSpec))
	}
}

// BenchmarkGatewaySmallJob is the front door in process: Submit then Wait
// of a heat1d 32×8 job with a fresh seed each time, on a gateway configured
// as cmd/pochoird's defaults configure it (tracing on, 64-step segments),
// less the tenant rate limit.
func BenchmarkGatewaySmallJob(b *testing.B) {
	g := New(Config{
		Workers:    2,
		TenantRate: 1e9,
		Supervise:  pochoir.SupervisePolicy{SegmentSteps: 64},
		Trace:      trace.New(trace.Config{}),
	})
	defer g.Close()
	b.ReportAllocs()
	for seed := int64(0); b.Loop(); seed++ {
		runOne(b, g, sub(8, 32, seed))
	}
}

// BenchmarkGatewayComputeJob is BenchmarkGatewaySmallJob for the served
// compute job, heat2d 192²×32: its bytes per job are what the grid free
// list saves.
func BenchmarkGatewayComputeJob(b *testing.B) {
	g := New(Config{
		Workers:    2,
		TenantRate: 1e9,
		Supervise:  pochoir.SupervisePolicy{SegmentSteps: 64},
		Trace:      trace.New(trace.Config{}),
	})
	defer g.Close()
	b.ReportAllocs()
	for seed := int64(0); b.Loop(); seed++ {
		runOne(b, g, Submission{Spec: heat2dSpec, Sizes: []int{192, 192}, Steps: 32, Seed: seed})
	}
}

// TestConcurrentJobsKeepChecksums: jobs running side by side on storage
// that finished jobs released give the checksums each gives alone — the
// pinned ones included. Under -race a job that kept reading its arrays
// after releasing them would race with the job that drew them next.
func TestConcurrentJobsKeepChecksums(t *testing.T) {
	subs := []Submission{sub(64, 128, 7), {Spec: waveSpec, Sizes: []int{24, 17}, Steps: 9, Seed: 3}}
	want := []string{"eaa84ccd140ac1ed", "dc7cb1bb54b87fe1"}
	for seed := int64(100); seed < 106; seed++ {
		s := subs[seed%2]
		s.Seed = seed
		subs = append(subs, s)
		alone := New(Config{Workers: 1})
		want = append(want, runOne(t, alone, s).Checksum)
		alone.Close()
	}
	g := New(Config{Workers: 3, TenantBurst: 1000, TenantMaxConcurrent: 100})
	defer g.Close()
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range subs {
					i := (i + c) % len(subs)
					st, serr := g.Submit("t", subs[i])
					if serr != nil {
						t.Errorf("submit: %v", serr)
						return
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					fin, err := g.Wait(ctx, st.ID)
					cancel()
					if err != nil || fin.Checksum != want[i] {
						t.Errorf("job %d (seed %d): %v, checksum %s, want %s", i, subs[i].Seed, err, fin.Checksum, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStatusCarriesProgress: a running job's status carries its live
// progress entry, a finished one's the entry it finished with.
func TestStatusCarriesProgress(t *testing.T) {
	g := New(Config{Workers: 1})
	defer g.Close()
	release := holdWorkers(t, 1)
	st, serr := g.Submit("t", blockerJob(1))
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		run := g.Job(st.ID)
		if run.State == StateRunning && run.Progress != nil {
			if !run.Progress.Active || run.Progress.Label != st.ID || run.Progress.Percent >= 100 {
				t.Fatalf("running job's progress: %+v", run.Progress)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never showed running progress: %+v", run)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	fin := waitDone(t, g, st.ID)
	if p := fin.Progress; fin.State != StateDone || p == nil || p.Active || !p.OK || p.Percent != 100 || p.Label != st.ID {
		t.Fatalf("finished job's progress: %+v (state %s)", p, fin.State)
	}
}

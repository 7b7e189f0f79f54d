package gateway

// Profile smoke suite: the end-to-end acceptance scenario of continuous
// profiling, exercised over real HTTP under the race detector via
// `make profile-smoke`:
//
//   - two tenants submit jobs through POST /jobs, one deliberately
//     CPU-skewed (big grids, many steps) and one nearly idle; the
//     /profilez.json attribution must show the skewed tenant dominating
//     the tenant breakdown, proving the labels survive the whole chain
//     (gateway pprof.Do -> supervisor engine label -> walker phase label
//     -> sched worker inheritance -> capture -> decode);
//   - the engine, phase, job, and priority breakdowns are populated, so
//     every layer's label demonstrably reached the samples;
//   - /metrics exports pochoir_tenant_cpu_seconds_total for the skewed
//     tenant with a positive value, plus the profiler's self-metrics;
//   - the regression sentinel stays silent across two clean views of the
//     same workload and flags a synthetically injected kernel-share
//     collapse;
//   - the ASCII /profilez view renders the per-tenant breakdown.
//
// When POCHOIR_PROFILE_SMOKE_OUT is set, the JSON report, the ASCII view,
// and the sentinel findings are written there as CI artifacts.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/metrics"
	"pochoir/internal/profile"
)

// profilezDoc mirrors the /profilez.json document shape.
type profilezDoc struct {
	Schema   string          `json:"schema"`
	Captures map[string]int  `json:"captures"`
	Report   *profile.Report `json:"report"`
}

// tenantCPUOf returns a tenant's attributed CPU seconds from a report
// (0 when absent).
func tenantCPUOf(rep *profile.Report, tenant string) float64 {
	if rep == nil {
		return 0
	}
	for _, ls := range rep.ByLabel["tenant"] {
		if ls.Value == tenant {
			return ls.CPUSeconds
		}
	}
	return 0
}

func TestProfileSmoke(t *testing.T) {
	// Short back-to-back windows so attribution accumulates quickly; heap
	// snapshots off to keep the ring purely CPU for the aggregate.
	prof := profile.New(profile.Config{
		Window:    150 * time.Millisecond,
		Interval:  -1,
		Retain:    64,
		HeapEvery: -1,
	})
	reg := metrics.NewRegistry()
	g := New(Config{
		Workers:             2,
		QueueDepth:          64,
		Metrics:             reg,
		Profiler:            prof,
		TenantRate:          10000,
		TenantBurst:         10000,
		TenantMaxConcurrent: 1000,
		Supervise:           pochoir.SupervisePolicy{SegmentSteps: 64},
	})
	srv, err := Serve("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	// /profilez must be mounted (and indexed) from the first request, even
	// before the first window lands.
	code, body := httpGet(t, base+"/profilez")
	if code != 200 || !strings.Contains(string(body), profile.Schema) {
		t.Fatalf("GET /profilez before first capture: %d %q", code, body)
	}

	// The workload: batches of two heavy jobs for tenant "grid-hog" plus
	// one tiny job for tenant "thrifty", repeated until the aggregate
	// attributes enough CPU to the heavy tenant to judge shares reliably.
	// Distinct seeds keep submissions from coalescing.
	const heavy, light = "grid-hog", "thrifty"
	seed := int64(1)
	runBatch := func() {
		ids := make([]string, 0, 3)
		for i := 0; i < 2; i++ {
			st, shed, code, _ := postJob(t, base, heavy, sub(3000, 8192, seed))
			seed++
			if st == nil {
				t.Fatalf("heavy submit refused: %d %+v", code, shed)
			}
			ids = append(ids, st.ID)
		}
		st, shed, code, _ := postJob(t, base, light, sub(20, 64, seed))
		seed++
		if st == nil {
			t.Fatalf("light submit refused: %d %+v", code, shed)
		}
		ids = append(ids, st.ID)
		for _, id := range ids {
			if fin := waitJob(t, base, id); fin.State != StateDone {
				t.Fatalf("job %s did not finish: %+v", id, fin)
			}
		}
	}
	fetch := func() *profilezDoc {
		_, raw := httpGet(t, base+"/profilez.json")
		var doc profilezDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("/profilez.json: %v\n%s", err, raw)
		}
		return &doc
	}

	var doc *profilezDoc
	deadline := time.Now().Add(60 * time.Second)
	for {
		runBatch()
		doc = fetch()
		if tenantCPUOf(doc.Report, heavy) >= 0.3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heavy tenant never accumulated 0.3 attributed CPU seconds: %+v", doc.Report)
		}
	}

	if doc.Schema != profile.Schema {
		t.Fatalf("schema %q, want %q", doc.Schema, profile.Schema)
	}
	if doc.Captures["cpu"] == 0 {
		t.Fatalf("no cpu captures in the ring: %v", doc.Captures)
	}
	rep := doc.Report

	// The skewed tenant dominates the tenant breakdown: its attributed CPU
	// must dwarf the thrifty tenant's, and lead all named tenants.
	heavyCPU, lightCPU := tenantCPUOf(rep, heavy), tenantCPUOf(rep, light)
	if heavyCPU < 4*lightCPU {
		t.Fatalf("tenant skew not attributed: %s=%.3fs vs %s=%.3fs\n%+v",
			heavy, heavyCPU, light, lightCPU, rep.ByLabel["tenant"])
	}
	for _, ls := range rep.ByLabel["tenant"] {
		if ls.Value != "" && ls.Value != heavy && ls.CPUSeconds > heavyCPU {
			t.Fatalf("tenant %q out-attributed the skewed tenant: %+v", ls.Value, rep.ByLabel["tenant"])
		}
	}

	// Every layer's label reached the samples: the gateway's job/priority,
	// the supervisor's engine, the walker's phase.
	wantValue := func(key, value string) {
		t.Helper()
		for _, ls := range rep.ByLabel[key] {
			if ls.Value == value && ls.CPUSeconds > 0 {
				return
			}
		}
		t.Errorf("no CPU attributed to %s=%s: %+v", key, value, rep.ByLabel[key])
	}
	wantValue("priority", "normal")
	wantValue("engine", "TRAP")
	jobLabeled := false
	for _, ls := range rep.ByLabel["job"] {
		if strings.HasPrefix(ls.Value, "j-") && ls.CPUSeconds > 0 {
			jobLabeled = true
		}
	}
	if !jobLabeled {
		t.Errorf("no CPU attributed to any job id: %+v", rep.ByLabel["job"])
	}
	phased := false
	for _, ls := range rep.ByLabel["phase"] {
		switch ls.Value {
		case "walk", "base", "boundary":
			if ls.CPUSeconds > 0 {
				phased = true
			}
		}
	}
	if !phased {
		t.Errorf("no CPU attributed to a walker phase: %+v", rep.ByLabel["phase"])
	}

	// The exporter side: /metrics carries the cumulative per-tenant gauge
	// and the profiler's self-metrics, and the exposition stays valid.
	_, expo := httpGet(t, base+"/metrics")
	if err := metrics.CheckExposition(expo); err != nil {
		t.Fatalf("/metrics exposition: %v", err)
	}
	gaugeRe := regexp.MustCompile(`pochoir_tenant_cpu_seconds_total\{tenant="` + heavy + `"\} ([0-9.eE+-]+)`)
	m := gaugeRe.FindSubmatch(expo)
	if m == nil {
		t.Fatalf("no pochoir_tenant_cpu_seconds_total for %s in /metrics", heavy)
	}
	var gv float64
	if _, err := fmt.Sscanf(string(m[1]), "%g", &gv); err != nil || gv <= 0 {
		t.Fatalf("tenant CPU gauge %q not positive", m[1])
	}
	if !strings.Contains(string(expo), `pochoir_profile_captures_total{kind="cpu"}`) {
		t.Error("profiler self-metrics missing from /metrics")
	}

	// The sentinel: silent across two clean views of the same workload,
	// loud on an injected kernel-share collapse.
	clean := *rep
	clean.KernelShare += 0.02 // sampling wobble well inside the noise floor
	if fs := profile.Compare(rep, &clean); len(fs) != 0 {
		t.Fatalf("sentinel flagged a clean run: %v", fs)
	}
	regressed := *rep
	regressed.KernelShare = rep.KernelShare - 0.25
	regressed.WalkerShare = rep.WalkerShare + 0.25
	findings := profile.Compare(rep, &regressed)
	metricsFlagged := map[string]bool{}
	for _, f := range findings {
		metricsFlagged[f.Metric] = true
	}
	if !metricsFlagged["kernel_share"] || !metricsFlagged["walker_share"] {
		t.Fatalf("sentinel missed the injected shift: %v", findings)
	}

	// The human view renders the tenant breakdown.
	_, ascii := httpGet(t, base+"/profilez")
	if !strings.Contains(string(ascii), "by tenant:") || !strings.Contains(string(ascii), heavy) {
		t.Fatalf("/profilez ASCII view missing the tenant breakdown:\n%s", ascii)
	}

	if dir := os.Getenv("POCHOIR_PROFILE_SMOKE_OUT"); dir != "" {
		_, raw := httpGet(t, base+"/profilez.json")
		if err := os.WriteFile(filepath.Join(dir, "profilez.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "profilez.txt"), ascii, 0o644); err != nil {
			t.Fatal(err)
		}
		fj, _ := json.MarshalIndent(findings, "", "  ")
		if err := os.WriteFile(filepath.Join(dir, "sentinel-findings.json"), fj, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

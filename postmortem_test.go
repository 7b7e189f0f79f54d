package pochoir_test

// Flight-recorder and post-mortem forensics suite: the always-on black box
// must turn every terminal failure into a parseable pochoir-postmortem/v1
// bundle with a non-empty recent-event window, the failing zoid attributed,
// and the incident served live at /debug/flightz and summarized in /statusz.
// The faultpoint-driven tests are determinism tests: the same armed spec must
// yield a bundle on every run, not just when the scheduler cooperates.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pochoir"
	"pochoir/internal/faultpoint"
	"pochoir/internal/flight"
)

// bundleDir redirects this test's bundles into a private directory and
// clears the process-wide last-incident record so assertions see only what
// the test itself produced.
func bundleDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	t.Setenv(flight.DirEnvVar, dir)
	flight.ResetLastIncident()
	t.Cleanup(flight.ResetLastIncident)
	return dir
}

// bundleFiles lists the post-mortem bundles written into dir.
func bundleFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "postmortem-") && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// kindCounts tallies a bundle's event window by kind.
func kindCounts(evs []pochoir.FlightEvent) map[flight.Kind]int {
	m := make(map[flight.Kind]int)
	for _, ev := range evs {
		m[ev.Kind]++
	}
	return m
}

// TestFaultpointFailureWritesBundle is the determinism test of the issue's
// acceptance criteria: a faultpoint-forced kernel panic must always produce
// a parseable bundle whose event window is non-empty and whose cause carries
// the failing zoid.
func TestFaultpointFailureWritesBundle(t *testing.T) {
	const X, Y, steps = 48, 48, 12
	dir := bundleDir(t)
	defer faultpoint.DisarmAll()
	// Fine cutoffs force a deep decomposition so the ring holds a rich
	// window (cuts, bases, the fault trip) by the time the panic lands.
	fine := pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}}
	faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
		Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 40,
	})
	st, _, kern := heatStencil(t, fine, X, Y, 13)
	err := st.Run(steps, kern)
	var kp *pochoir.KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("faulted run returned %v, want *KernelPanicError", err)
	}

	files := bundleFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("got %d bundles, want exactly 1: %v", len(files), files)
	}
	b, err := pochoir.ReadPostmortemBundle(files[0])
	if err != nil {
		t.Fatalf("ReadPostmortemBundle: %v", err)
	}
	if b.Schema != flight.Schema {
		t.Fatalf("schema = %q, want %q", b.Schema, flight.Schema)
	}
	if b.Cause.Kind != "kernel-panic" {
		t.Fatalf("cause kind = %q, want kernel-panic", b.Cause.Kind)
	}
	if b.Cause.Zoid == nil || len(b.Cause.Zoid.Lo) != 2 || b.Cause.Zoid.T1 <= b.Cause.Zoid.T0 {
		t.Fatalf("cause zoid not attributed: %+v", b.Cause.Zoid)
	}
	// The bundle names the zoid the run's error names, so a zoid that covers
	// the failing step in the error covers it in the bundle too.
	if z, want := b.Cause.Zoid, kp.Zoid; z.T0 != want.T0 || z.T1 != want.T1 ||
		!slices.Equal(z.Lo, want.Lo[:2]) || !slices.Equal(z.Hi, want.Hi[:2]) {
		t.Fatalf("bundle zoid %+v, the run's error names %+v", *z, want)
	}
	if !strings.Contains(b.Cause.Error, "injected panic") {
		t.Fatalf("cause error %q does not name the injected fault", b.Cause.Error)
	}
	if len(b.Events) == 0 {
		t.Fatal("bundle event window is empty")
	}
	if b.TotalEvents < uint64(len(b.Events)) {
		t.Fatalf("TotalEvents %d < window %d", b.TotalEvents, len(b.Events))
	}
	counts := kindCounts(b.Events)
	if counts[flight.EvBase] == 0 || counts[flight.EvCut] == 0 {
		t.Fatalf("window missing decomposition events: %v", counts)
	}
	if counts[flight.EvFault] == 0 {
		t.Fatalf("window missing the faultpoint trip: %v", counts)
	}
	if counts[flight.EvPanic] == 0 {
		t.Fatalf("window missing the panic marker: %v", counts)
	}
	if b.Run.NDims != 2 || b.Run.Supervised {
		t.Fatalf("run info wrong: %+v", b.Run)
	}
	if b.Host.PID != os.Getpid() {
		t.Fatalf("host PID = %d, want %d", b.Host.PID, os.Getpid())
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Fatal("goroutine dump missing")
	}
	// Every event must render; Describe is what cmd/blackbox prints.
	for _, ev := range b.Events {
		if ev.Describe() == "" {
			t.Fatalf("event %+v renders empty", ev)
		}
	}
	inc := pochoir.LastIncident()
	if inc == nil || inc.Path != files[0] || inc.Bundle == nil {
		t.Fatalf("LastIncident = %+v, want in-memory bundle at %s", inc, files[0])
	}
	if inc.Cause.Kind != "kernel-panic" {
		t.Fatalf("incident cause = %q", inc.Cause.Kind)
	}
}

// TestNoFlightRecorderSkipsBundle: opting out disables both recording and
// automatic bundles.
func TestNoFlightRecorderSkipsBundle(t *testing.T) {
	const X, Y, steps = 32, 32, 8
	dir := bundleDir(t)
	defer faultpoint.DisarmAll()
	faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
		Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 2,
	})
	st, _, kern := heatStencil(t, pochoir.Options{NoFlightRecorder: true, Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}}, X, Y, 5)
	if err := st.Run(steps, kern); err == nil {
		t.Fatal("faulted run returned nil")
	}
	if files := bundleFiles(t, dir); len(files) != 0 {
		t.Fatalf("bundle written despite NoFlightRecorder: %v", files)
	}
	if inc := pochoir.LastIncident(); inc != nil {
		t.Fatalf("incident published despite NoFlightRecorder: %+v", inc)
	}
}

// freshDefaultRecorder replaces the process-wide flight recorder with an empty
// one of ring events per lane for the rest of the test, so what it holds is
// what the test recorded.
func freshDefaultRecorder(t *testing.T, ring int) *pochoir.FlightRecorder {
	t.Helper()
	t.Cleanup(func() { flight.SetDefaultRing(0) })
	return flight.SetDefaultRing(ring)
}

// TestPrivateRecorderCapturesRunLifecycle: the black box a run records into
// is the process-wide one, and a healthy run brackets its window with
// run-start/run-end markers.
func TestPrivateRecorderCapturesRunLifecycle(t *testing.T) {
	const X, Y, steps = 32, 32, 4
	fr := freshDefaultRecorder(t, 256)
	st, _, kern := heatStencil(t, pochoir.Options{}, X, Y, 3)
	if err := st.Run(steps, kern); err != nil {
		t.Fatal(err)
	}
	if fr != pochoir.DefaultFlightRecorder() || fr.TotalRecorded() == 0 {
		t.Fatal("default recorder saw no events")
	}
	counts := kindCounts(fr.Snapshot())
	if counts[flight.EvRunStart] != 1 || counts[flight.EvRunEnd] != 1 {
		t.Fatalf("run lifecycle not bracketed: %v", counts)
	}
	if counts[flight.EvBase] == 0 {
		t.Fatalf("no base-case events: %v", counts)
	}
	evs := fr.Snapshot()
	last := evs[len(evs)-1]
	if last.Kind != flight.EvRunEnd || last.A0 != 0 {
		t.Fatalf("last event = %+v, want successful EvRunEnd", last)
	}
}

// TestEnginePanicHonoursRunRecorder: a panic on the run's goroutine outside
// any base case — a cut-site fault before anything spawned — is recorded by
// the run's own recorder: the default one normally, none under
// NoFlightRecorder.
func TestEnginePanicHonoursRunRecorder(t *testing.T) {
	const X, Y, steps = 32, 32, 8
	bundleDir(t)
	defer faultpoint.DisarmAll()
	for _, off := range []bool{true, false} {
		fr := freshDefaultRecorder(t, 1024)
		faultpoint.Arm(faultpoint.SiteCut, faultpoint.Spec{Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, Times: 1})
		st, _, kern := heatStencil(t, pochoir.Options{NoFlightRecorder: off, Serial: true}, X, Y, 5)
		var ep *pochoir.EnginePanicError
		if err := st.Run(steps, kern); !errors.As(err, &ep) {
			t.Fatalf("NoFlightRecorder=%v: got %v, want an engine panic", off, err)
		}
		want := 1
		if off {
			want = 0
		}
		if got := kindCounts(fr.Snapshot())[flight.EvPanic]; got != want {
			t.Errorf("NoFlightRecorder=%v: default recorder holds %d EvPanic, want %d", off, got, want)
		}
	}
}

// TestSupervisedGiveUpBundleIncludesReport: a supervised run that exhausts
// its retry budget writes exactly one bundle — the supervisor's terminal
// give-up, not one per attempt — and embeds the decision log.
func TestSupervisedGiveUpBundleIncludesReport(t *testing.T) {
	const X, Y, steps = 32, 32, 8
	dir := bundleDir(t)
	st, _, _ := heatStencil(t, pochoir.Options{Grain: 1}, X, Y, 9)
	// A kernel that always panics defeats every rung of the degradation
	// ladder, forcing the supervisor to give up.
	bad := pochoir.K2(func(tt, x, y int) { panic("always broken") })
	rep, err := st.RunSupervised(context.Background(), steps, bad, pochoir.SupervisePolicy{
		SegmentSteps: 4,
		MaxAttempts:  2,
		BaseDelay:    time.Microsecond,
		MaxDelay:     10 * time.Microsecond,
	})
	if err == nil {
		t.Fatal("doomed supervised run returned nil")
	}
	if rep == nil || len(rep.Events) == 0 {
		t.Fatal("no supervisor report")
	}
	files := bundleFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("got %d bundles, want exactly 1 (terminal give-up only): %v", len(files), files)
	}
	b, rerr := pochoir.ReadPostmortemBundle(files[0])
	if rerr != nil {
		t.Fatal(rerr)
	}
	if b.Cause.Kind != "kernel-panic" {
		t.Fatalf("cause = %q, want kernel-panic", b.Cause.Kind)
	}
	if !b.Run.Supervised {
		t.Fatal("bundle not marked supervised")
	}
	if len(b.Supervisor) == 0 {
		t.Fatal("bundle missing the supervisor section")
	}
	var gotRep pochoir.RunReport
	if err := json.Unmarshal(b.Supervisor, &gotRep); err != nil {
		t.Fatalf("supervisor section does not round-trip: %v", err)
	}
	if len(gotRep.Events) != len(rep.Events) {
		t.Fatalf("decision log truncated: %d != %d", len(gotRep.Events), len(rep.Events))
	}
	if gotRep.Err == nil {
		t.Fatal("report error lost in the bundle")
	}
	counts := kindCounts(b.Events)
	if counts[flight.EvSup] == 0 {
		t.Fatalf("window missing supervisor events: %v", counts)
	}
}

// TestMonitorServesLastIncident: after a failure, /debug/flightz serves the
// full bundle and /statusz carries the last_incident summary.
func TestMonitorServesLastIncident(t *testing.T) {
	const X, Y, steps = 32, 32, 8
	bundleDir(t)
	defer faultpoint.DisarmAll()

	reg := pochoir.NewMetrics()
	mon, err := pochoir.ServeMonitor("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	get := func(path string, wantStatus int) []byte {
		t.Helper()
		resp, err := http.Get(mon.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var buf strings.Builder
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		return []byte(buf.String())
	}

	// Before any incident the endpoint 404s with a JSON body.
	body := get("/debug/flightz", http.StatusNotFound)
	if !strings.Contains(string(body), "no incident recorded") {
		t.Fatalf("empty-incident body = %s", body)
	}

	faultpoint.Arm(faultpoint.SiteBase, faultpoint.Spec{
		Kind: faultpoint.KindPanic, Depth: faultpoint.AnyDepth, After: 2,
	})
	st, _, kern := heatStencil(t, pochoir.Options{Grain: 1, TimeCutoff: 2, SpaceCutoff: []int{16, 16}, Metrics: reg}, X, Y, 7)
	if err := st.Run(steps, kern); err == nil {
		t.Fatal("faulted run returned nil")
	}
	faultpoint.DisarmAll()

	var b pochoir.PostmortemBundle
	if err := json.Unmarshal(get("/debug/flightz", http.StatusOK), &b); err != nil {
		t.Fatalf("flightz did not serve a bundle: %v", err)
	}
	if b.Schema != flight.Schema || b.Cause.Kind != "kernel-panic" || len(b.Events) == 0 {
		t.Fatalf("served bundle wrong: schema=%q cause=%q events=%d", b.Schema, b.Cause.Kind, len(b.Events))
	}

	var status struct {
		LastIncident *flight.IncidentSummary `json:"last_incident"`
	}
	if err := json.Unmarshal(get("/statusz", http.StatusOK), &status); err != nil {
		t.Fatal(err)
	}
	if status.LastIncident == nil {
		t.Fatal("statusz missing last_incident")
	}
	if status.LastIncident.Cause != "kernel-panic" || status.LastIncident.Path == "" {
		t.Fatalf("last_incident = %+v", status.LastIncident)
	}
}

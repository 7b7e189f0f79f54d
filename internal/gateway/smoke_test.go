package gateway

// Gateway smoke suite: the overload/drain safety contract of cmd/pochoird,
// exercised end to end over real HTTP (and, for SIGTERM, a real re-exec'd
// daemon process). CI runs these under -race via `make gateway-smoke`:
//
//   - a burst past queue capacity sheds with 429 + Retry-After and loses
//     zero accepted jobs;
//   - concurrent executions never exceed the worker pool bound;
//   - an injected worker fault (POCHOIR_FAULTPOINTS grammar) is absorbed
//     by the supervisor and the result stays bit-identical to an
//     unfaulted run;
//   - SIGTERM mid-burst drains: every admitted job completes, then the
//     process exits cleanly with a drain summary;
//   - the self-scraped /metrics exposition stays parseable throughout.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"pochoir/internal/faultpoint"
	"pochoir/internal/metrics"
)

// postJob submits over HTTP and returns the decoded status (202) or the
// shed response and code.
func postJob(t *testing.T, base, tenant string, s Submission) (*JobStatus, *shedResponse, int, http.Header) {
	t.Helper()
	body, _ := json.Marshal(s)
	req, err := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode 202 body: %v", err)
		}
		return &st, nil, resp.StatusCode, resp.Header
	}
	var shed shedResponse
	_ = json.NewDecoder(resp.Body).Decode(&shed)
	return nil, &shed, resp.StatusCode, resp.Header
}

// waitJob polls GET /jobs/{id}?wait_ms until the job is terminal.
func waitJob(t *testing.T, base, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id + "?wait_ms=2000")
		if err != nil {
			t.Fatalf("GET /jobs/%s: %v", id, err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return &st
		}
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return nil
}

func TestGatewaySmoke(t *testing.T) {
	reg := metrics.NewRegistry()
	g := New(Config{
		Workers:             2,
		QueueDepth:          4,
		Metrics:             reg,
		TenantBurst:         1000,
		TenantMaxConcurrent: 1000,
	})
	srv, err := Serve("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	// Phase 1 — overload: hold both workers at their first base case on a
	// gated faultpoint, burst far past queue capacity, then open the gate.
	// Two jobs are held and four fit the queue, so most of the burst must
	// shed with 429 + Retry-After however fast a job runs; every accepted
	// job must still complete.
	openGate := holdWorkers(t, 2)
	var accepted []string
	for i := 0; i < 2; i++ {
		st, shed, code, _ := postJob(t, base, "burst", blockerJob(int64(1+i)))
		if code != 202 {
			t.Fatalf("blocker %d: %d %+v", i, code, shed)
		}
		accepted = append(accepted, st.ID)
	}
	var sheds int
	for i := 0; i < 24; i++ {
		st, shed, code, hdr := postJob(t, base, "burst", sub(2000, 512, int64(100+i)))
		switch code {
		case 202:
			accepted = append(accepted, st.ID)
		case 429:
			if shed.Reason != "queue_full" {
				t.Fatalf("unexpected shed reason %q", shed.Reason)
			}
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			sheds++
		default:
			t.Fatalf("unexpected status %d (%+v)", code, shed)
		}
	}
	openGate()
	if sheds < 24-4-2 {
		t.Fatalf("burst of 24 past two held workers and a 4-deep queue shed only %d (%d accepted)", sheds, len(accepted))
	}
	for _, id := range accepted {
		if st := waitJob(t, base, id); st.State != StateDone || st.Checksum == "" {
			t.Fatalf("accepted job %s lost under overload: %+v", id, st)
		}
	}
	if mr := g.MaxRunning(); mr > 2 {
		t.Fatalf("pool bound violated: %d concurrent jobs on 2 workers", mr)
	}

	// Phase 2 — fault absorption: an unfaulted reference run, then the
	// identical submission with a one-shot injected worker panic (same
	// grammar as POCHOIR_FAULTPOINTS). The supervisor must retry and the
	// result must be bit-identical.
	ref, _, code, _ := postJob(t, base, "fault", sub(64, 128, 777))
	if code != 202 {
		t.Fatalf("reference job: %d", code)
	}
	refSt := waitJob(t, base, ref.ID)
	if refSt.State != StateDone {
		t.Fatalf("reference job failed: %+v", refSt)
	}
	if err := faultpoint.ArmFromSpec("walker/base=panic:after=0,times=1"); err != nil {
		t.Fatal(err)
	}
	defer faultpoint.DisarmAll()
	faulted, _, code, _ := postJob(t, base, "fault", sub(64, 128, 777))
	if code != 202 {
		t.Fatalf("faulted job: %d", code)
	}
	faultSt := waitJob(t, base, faulted.ID)
	if faultSt.State != StateDone {
		t.Fatalf("injected fault not absorbed: %+v", faultSt)
	}
	if faultSt.Retries < 1 {
		t.Fatalf("fault did not force a retry: %+v", faultSt)
	}
	if faultSt.Checksum != refSt.Checksum {
		t.Fatalf("faulted result diverged: %s vs %s", faultSt.Checksum, refSt.Checksum)
	}

	// Phase 3 — observability: the self-scraped exposition parses, carries
	// the gateway instrument set, and /healthz answers while admitting.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := metrics.CheckExposition(data); err != nil {
		t.Fatalf("/metrics exposition: %v", err)
	}
	for _, want := range []string{
		"pochoir_gateway_jobs_admitted_total",
		`pochoir_gateway_jobs_shed_total{reason="queue_full"}`,
		"pochoir_gateway_job_latency_ms_bucket",
		"pochoir_sup_", // the supervised runs self-scrape into the same registry
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if resp, err = http.Get(base + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// childEnv guards the re-exec'd daemon child below.
const childEnv = "POCHOIRD_CHILD"

// TestPochoirdDaemonChild is the re-exec target of TestPochoirdSIGTERM: it
// runs the real Daemon lifecycle (serve, announce, SIGTERM, drain, summary)
// in a separate process so the signal path is exercised for real.
func TestPochoirdDaemonChild(t *testing.T) {
	if os.Getenv(childEnv) == "" {
		t.Skip("daemon child; run via TestPochoirdSIGTERM")
	}
	cfg := Config{
		Workers:             2,
		QueueDepth:          16,
		TenantBurst:         1000,
		TenantMaxConcurrent: 1000,
		SpillDir:            os.Getenv("POCHOIRD_SPILL_DIR"),
	}
	if err := Daemon(cfg, "127.0.0.1:0", 60*time.Second, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

// startDaemonChild re-execs this binary as a pochoird daemon (see
// TestPochoirdDaemonChild) and returns it once it has announced its address,
// with the scanner positioned just past the listen line.
func startDaemonChild(t *testing.T, env ...string) (cmd *exec.Cmd, sc *bufio.Scanner, base string) {
	t.Helper()
	cmd = exec.Command(os.Args[0], "-test.run=TestPochoirdDaemonChild$", "-test.v")
	cmd.Env = append(append(os.Environ(), childEnv+"=1", "POCHOIRD_SPILL_DIR="+t.TempDir()), env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	sc = bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "pochoird listening on "); ok {
			return cmd, sc, strings.TrimSpace(rest)
		}
	}
	t.Fatalf("child never announced its address: %v", sc.Err())
	return nil, nil, ""
}

// awaitDrain reads the child's drain summary and requires a clean exit.
func awaitDrain(t *testing.T, cmd *exec.Cmd, sc *bufio.Scanner) DrainSummary {
	t.Helper()
	var sum struct {
		Drain DrainSummary `json:"drain"`
	}
	found := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, `{"drain":`) {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatalf("drain summary %q: %v", line, err)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no drain summary on child stdout: %v", sc.Err())
	}
	for sc.Scan() {
		// Drain the pipe so the child can exit.
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child exit: %v", err)
	}
	return sum.Drain
}

// TestPochoirdSIGTERM re-execs this binary as a pochoird daemon, bursts
// jobs at it, SIGTERMs it mid-flight, and requires a clean graceful drain:
// every admitted job completes (the child also carries a POCHOIR_FAULTPOINTS
// one-shot panic, absorbed by the supervisor), the drain summary says so,
// and the process exits 0.
func TestPochoirdSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness skipped in -short")
	}
	// One injected worker panic inside the daemon: the drain must still
	// complete every job, proving the supervisor absorbs it in service.
	cmd, sc, base := startDaemonChild(t, faultpoint.EnvVar+"=walker/base=panic:after=1,times=1")

	// Burst admitted work, then SIGTERM while it is still in flight.
	admitted := 0
	for i := 0; i < 6; i++ {
		_, shed, code, _ := postJob(t, base, "drainer", sub(3000, 512, int64(i)))
		if code != 202 {
			t.Fatalf("job %d not admitted: %d %+v", i, code, shed)
		}
		admitted++
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// A submission after the signal is either refused with 503 (drain has
	// begun — never buffered) or, if it wins the race with asynchronous
	// signal delivery, admitted — in which case the drain must complete it
	// too. Both outcomes keep the zero-loss invariant.
	if _, _, code, _ := postJob(t, base, "late", sub(8, 32, 999)); code == 202 {
		admitted++
	} else if code != 503 {
		t.Logf("post-SIGTERM submission answered %d", code)
	}

	if sum := awaitDrain(t, cmd, sc); sum.TimedOut || sum.Completed != admitted || sum.Failed != 0 {
		t.Fatalf("drain lost admitted jobs: %+v (want %d completed)", sum, admitted)
	}
}

// TestPochoirdSIGTERMAtAnnounce: a SIGTERM sent the moment the listen line
// is read — before the daemon has served anything — must still drain and
// print the summary, not kill the process: the handler is installed before
// the address is announced.
func TestPochoirdSIGTERMAtAnnounce(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness skipped in -short")
	}
	for i := 0; i < 5; i++ {
		cmd, sc, _ := startDaemonChild(t)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if sum := awaitDrain(t, cmd, sc); sum != (DrainSummary{}) {
			t.Fatalf("launch %d: idle daemon drained %+v", i, sum)
		}
	}
}

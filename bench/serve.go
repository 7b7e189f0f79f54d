package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pochoir"
	"pochoir/internal/compiler"
	"pochoir/internal/core"
)

// The served workloads drive a real cmd/pochoird child over HTTP. The load
// is a closed loop: each client is a batch submitter that sends its next
// job only after the previous one reached a terminal state.

const (
	// serveWallCap bounds one served workload; past it the child is killed
	// and the run fails loudly.
	serveWallCap = 150 * time.Second
	// daemonStarts is how many launches setup_s is the median of.
	daemonStarts = 9
	// daemonSegmentSteps mirrors pochoird's -segment-steps default for the
	// in-process replay.
	daemonSegmentSteps = 64
)

// serveSpec is one served job class.
type serveSpec struct {
	spec    string
	box     box
	clients int
	warmup  int
	// reference computes the checksum a job with this seed must report.
	reference func(seed int64) string
}

func runServeCompute(c *runCtx) error {
	b := c.scale.serveCompute
	return runServe(c, serveSpec{
		spec: heat2dSpec, box: b, clients: 2, warmup: 2,
		reference: func(seed int64) string { return refHeat2DPeriodic(seed, b.sizes[0], b.sizes[1], b.steps) },
	})
}

func runServeSmall(c *runCtx) error {
	b := c.scale.serveSmall
	// One client: with two, sub-millisecond round trips measure the
	// scheduler of this 2-core box, not the front door.
	return runServe(c, serveSpec{
		spec: heat1dSpec, box: b, clients: 1, warmup: c.scale.serveWarmup,
		reference: func(seed int64) string { return refHeat1DPeriodic(seed, b.sizes[0], b.steps) },
	})
}

// submission and jobStatus are the wire format of POST /jobs and
// GET /jobs/<id>, written out here so the client depends on the documented
// JSON and not on the gateway's Go types.
type submission struct {
	Spec  string `json:"spec"`
	Sizes []int  `json:"sizes"`
	Steps int    `json:"steps"`
	Seed  int64  `json:"seed"`
}

type jobStatus struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	Coalesced     int     `json:"coalesced"`
	QueuedSeconds float64 `json:"queued_seconds"`
	RunSeconds    float64 `json:"run_seconds"`
	Checksum      string  `json:"checksum"`
	Error         string  `json:"error"`
}

// drainSummary is the last line pochoird prints on SIGTERM.
type drainSummary struct {
	Drain struct {
		Completed int  `json:"completed"`
		Failed    int  `json:"failed"`
		TimedOut  bool `json:"timed_out"`
	} `json:"drain"`
}

// daemon is one running pochoird child.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	lines   <-chan string // stdout after the listen line; closed at EOF
	stderr  *bytes.Buffer
	startup time.Duration // exec → first /healthz 200
}

// buildDaemon compiles cmd/pochoird into dir — once per process, before any
// timing.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "pochoird")
	out, err := exec.Command("go", "build", "-o", bin, "pochoir/cmd/pochoird").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build pochoird: %w\n%s", err, out)
	}
	return bin, nil
}

// startDaemon launches pochoird with its default flags — the production
// all-signals-on configuration — except an ephemeral port and tenant quotas
// raised past the load, and waits for /healthz.
func startDaemon(ctx context.Context, bin string, client *http.Client) (*daemon, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0",
		"-tenant-rate", "1e9", "-tenant-burst", strconv.Itoa(1<<30))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: new(bytes.Buffer)}
	cmd.Stderr = d.stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pochoird: %w", err)
	}
	// Three lines follow the listen line at most (signal, drain summary);
	// the buffer lets the reader reach EOF without a consumer.
	lines := make(chan string, 8)
	d.lines = lines
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
	}()
	const prefix = "pochoird listening on "
	select {
	case line, ok := <-lines:
		if !ok || !strings.HasPrefix(line, prefix) {
			d.kill()
			return nil, fmt.Errorf("pochoird did not announce its address (got %q); stderr: %s", line, d.stderr)
		}
		d.url = strings.TrimPrefix(line, prefix)
	case <-ctx.Done():
		d.kill()
		return nil, fmt.Errorf("pochoird did not start: %w", ctx.Err())
	}
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("pochoird never became healthy: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
	d.startup = time.Since(t0)
	return d, nil
}

// kill stops the child without ceremony and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	for range d.lines {
	}
	d.cmd.Wait()
}

// stop sends SIGTERM and requires a clean exit with a drain summary.
func (d *daemon) stop() (drainSummary, error) {
	var sum drainSummary
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return sum, fmt.Errorf("SIGTERM pochoird: %w", err)
	}
	var last string
	for line := range d.lines {
		last = line
	}
	if err := d.cmd.Wait(); err != nil {
		return sum, fmt.Errorf("pochoird exit: %w; stderr: %s", err, d.stderr)
	}
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		return sum, fmt.Errorf("pochoird printed no drain summary (last line %q): %w", last, err)
	}
	return sum, nil
}

// peakRSSMB reads the child's high-water resident set from /proc.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// jobSeed maps job number i to its seed. Multiplying by an odd constant is
// a bijection on 64-bit integers, so distinct jobs get distinct seeds and
// the gateway coalesces nothing; the run seed fixes the sequence.
func jobSeed(runSeed int64, i int) int64 {
	return int64(uint64(runSeed)*0xd1342543de82ef95 + uint64(i+1)*0x9e3779b97f4a7c15)
}

// jobOutcome is what a client saw of one job.
type jobOutcome struct {
	seed     int64
	latency  time.Duration // client send → terminal status seen
	status   jobStatus
	httpCode int // of the POST; 202 when accepted
	err      error
}

// submitAndWait posts one job and blocks until its terminal status.
func submitAndWait(client *http.Client, url string, sub submission, rec *spanRecorder, id int) jobOutcome {
	out := jobOutcome{seed: sub.Seed}
	body, err := json.Marshal(sub)
	if err != nil {
		out.err = err
		return out
	}
	root := rec.start(id, -1, "job")
	defer rec.end(root)
	t0 := time.Now()
	sp := rec.start(id, root, "http.post")
	req, err := http.NewRequest("POST", url+"/jobs", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("X-Tenant", "bench")
	resp, err := client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	out.httpCode = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&out.status)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.end(sp)
	if out.httpCode != http.StatusAccepted {
		out.err = fmt.Errorf("POST /jobs answered %d", out.httpCode)
		return out
	}
	if err != nil {
		out.err = fmt.Errorf("decode 202 body: %w", err)
		return out
	}
	sp = rec.start(id, root, "http.wait")
	defer rec.end(sp)
	for out.status.State != "done" && out.status.State != "failed" {
		resp, err := client.Get(url + "/jobs/" + out.status.ID + "?wait_ms=30000")
		if err != nil {
			out.err = err
			return out
		}
		err = json.NewDecoder(resp.Body).Decode(&out.status)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			out.err = fmt.Errorf("decode job status: %w", err)
			return out
		}
	}
	out.latency = time.Since(t0)
	return out
}

// serveWindow runs the closed loop for the budget: `clients` goroutines,
// each submitting its next job when its previous one is terminal. Job
// numbers — and so seeds — are handed out in submission order starting at
// *next.
func serveWindow(ctx context.Context, client *http.Client, url string, s serveSpec, runSeed int64,
	next *atomic.Int64, budget time.Duration, rec *spanRecorder) (outs []jobOutcome, elapsed time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(budget)
	for cl := 0; cl < s.clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []jobOutcome
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				sub := submission{Spec: s.spec, Sizes: s.box.sizes, Steps: s.box.steps, Seed: jobSeed(runSeed, i)}
				mine = append(mine, submitAndWait(client, url, sub, rec, i))
			}
			mu.Lock()
			outs = append(outs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs, time.Since(t0)
}

// windowStats is what one window's jobs add up to: the client latency and
// the gateway-side queue and run times (all ms) of the jobs that passed the
// oracle, and counts over all of them.
type windowStats struct {
	lat, queued, run          []float64
	accepted, shed, coalesced int
}

// judgeJobs holds every job of a window against the oracle.
func (c *runCtx) judgeJobs(s serveSpec, outs []jobOutcome) windowStats {
	var w windowStats
	for _, o := range outs {
		switch o.httpCode {
		case http.StatusAccepted:
			w.accepted++
		case http.StatusTooManyRequests:
			w.shed++
		}
		w.coalesced += o.status.Coalesced
		switch {
		case o.err != nil:
			c.judge(false, fmt.Sprintf("job seed %d: %v", o.seed, o.err))
		case o.status.State != "done":
			c.judge(false, fmt.Sprintf("job %s ended %s: %s", o.status.ID, o.status.State, o.status.Error))
		case o.status.Checksum != s.reference(o.seed):
			c.judge(false, fmt.Sprintf("job %s checksum %s, loop nest says %s", o.status.ID, o.status.Checksum, s.reference(o.seed)))
		default:
			c.judge(true, "")
			w.lat = append(w.lat, float64(o.latency)/float64(time.Millisecond))
			w.queued = append(w.queued, 1e3*o.status.QueuedSeconds)
			w.run = append(w.run, 1e3*o.status.RunSeconds)
		}
	}
	return w
}

// replayTimes are the stage times of one in-process replay.
type replayTimes struct {
	compile, instance, init, run, checksum time.Duration
	stats                                  compiler.Stats
	report                                 *pochoir.RunReport
}

// replay runs one submission's pipeline in-process, the way the gateway
// does — compile, instantiate, seeded init, supervised run, checksum — with
// a span per stage, and judges the checksum.
func (c *runCtx) replay(s serveSpec, seed int64, opts pochoir.Options, rec *spanRecorder, id int) (replayTimes, error) {
	var rt replayTimes
	var err error
	root := rec.start(id, -1, "replay")
	defer rec.end(root)
	var checked *compiler.Checked
	rt.compile = rec.time(id, root, "compiler.compile", func() {
		checked, rt.stats, err = compiler.CompileSourceStats(s.spec)
	})
	if err != nil {
		return rt, fmt.Errorf("compile: %w", err)
	}
	var inst *compiler.Instance
	rt.instance = rec.time(id, root, "compiler.instance", func() { inst, err = checked.NewInstance(s.box.sizes...) })
	if err != nil {
		return rt, fmt.Errorf("instance: %w", err)
	}
	arr := inst.Arrays[checked.Prog.Arrays[0].Name]
	buf := make([]float64, arr.PointsPerSlot())
	rt.init = rec.time(id, root, "grid.init", func() {
		gatewayInit(buf, seed, 0, 0)
		err = arr.CopyIn(0, buf)
	})
	if err != nil {
		return rt, fmt.Errorf("init: %w", err)
	}
	inst.Stencil.SetOptions(opts)
	sup := rec.start(id, root, "resilience.supervised_run")
	t0 := time.Now()
	rt.report, err = inst.Stencil.RunSupervised(context.Background(), s.box.steps, inst.Kernel(),
		pochoir.SupervisePolicy{SegmentSteps: daemonSegmentSteps, OnEvent: segmentSpans(rec, id, sup)})
	rt.run = time.Since(t0)
	rec.end(sup)
	if err != nil {
		return rt, fmt.Errorf("supervised run: %w", err)
	}
	var sum string
	rt.checksum = rec.time(id, root, "grid.checksum", func() {
		if err = arr.CopyOut(s.box.steps, buf); err == nil {
			sum = checksumString(hashFloats(buf))
		}
	})
	if err != nil {
		return rt, fmt.Errorf("checksum: %w", err)
	}
	c.judge(sum == s.reference(seed), fmt.Sprintf("in-process replay seed %d: checksum %s, loop nest says %s", seed, sum, s.reference(seed)))
	return rt, nil
}

// maxTracedReplays bounds a replay loop that records spans: a 256-update job
// replays in tens of microseconds, and trace.json needs hundreds of replays,
// not tens of thousands.
const maxTracedReplays = 500

// replayLoop replays the submission for the budget on `parallel` goroutines
// at once, at least minReps times each.
func (c *runCtx) replayLoop(s serveSpec, opts pochoir.Options, rec *spanRecorder, parallel int, budget time.Duration) ([]replayTimes, error) {
	var mu sync.Mutex
	var all []replayTimes
	var firstErr error
	var wg sync.WaitGroup
	deadline := time.Now().Add(budget)
	for g := 0; g < parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < minReps || time.Now().Before(deadline); i++ {
				if rec != nil && i >= maxTracedReplays {
					break
				}
				n := i*parallel + g
				rt, err := c.replay(s, jobSeed(c.seed, n), opts, rec, 100000+n)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				all = append(all, rt)
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return all, firstErr
}

// loopsReplays appends the run times (s) of a tenth of the budget's worth of
// in-process replays on the LOOPS engine — the last rung of the daemon's
// degradation ladder, so the speed a degraded job of this class runs at.
// runServe calls it before the daemon's window and again after it, so one
// disturbance of this shared box cannot cover all the replays.
func (c *runCtx) loopsReplays(s serveSpec, runs *[]float64) error {
	rts, err := c.replayLoop(s, pochoir.Options{Algorithm: core.LOOPS}, nil, 1, c.budget(0.1))
	for _, rt := range rts {
		*runs = append(*runs, rt.run.Seconds())
	}
	return err
}

// runServe is the served workload: launch the daemon (several times, for
// set-up time), warm it, run the closed loop, stop it cleanly and judge
// every checksum, with the same job in-process on the LOOPS engine before
// and after.
func runServe(c *runCtx, s serveSpec) error {
	c.logf("   DSL job %v x %d steps: %d updates/job, grid %.1f KiB; %d closed-loop client(s), %d warm-up job(s)\n",
		s.box.sizes, s.box.steps, s.box.updates(), float64(2*s.box.points()*8)/1024, s.clients, s.warmup)
	ctx, cancel := context.WithTimeout(context.Background(), serveWallCap)
	defer cancel()
	// One connection per client, kept alive: at most nproc connections.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.clients}}
	defer client.CloseIdleConnections()

	var loops []float64
	if !c.trace {
		if err := c.loopsReplays(s, &loops); err != nil {
			return err
		}
	}

	var startups []float64
	var d *daemon
	var err error
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			// A launch that served nothing has nothing to drain. (It also
			// cannot be drained reliably: pochoird announces its address
			// before it installs its SIGTERM handler.)
			d.kill()
		}
		if d, err = startDaemon(ctx, c.pochoird, client); err != nil {
			return err
		}
		startups = append(startups, d.startup.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	var next atomic.Int64
	accepted := 0
	for i := 0; i < s.warmup; i++ {
		n := int(next.Add(1) - 1)
		sub := submission{Spec: s.spec, Sizes: s.box.sizes, Steps: s.box.steps, Seed: jobSeed(c.seed, n)}
		if o := submitAndWait(client, d.url, sub, nil, n); o.err != nil {
			return fmt.Errorf("warm-up job %d: %w", n, o.err)
		}
		accepted++
	}

	// The timed window. A traced run splits it: first half with spans,
	// second half without, so the recorder's cost on latency is on record.
	window := c.budget(0.8)
	var outs, plainOuts []jobOutcome
	var elapsed time.Duration
	if c.trace {
		window = c.budget(0.3)
		outs, elapsed = serveWindow(ctx, client, d.url, s, c.seed, &next, window, c.rec)
		plainOuts, _ = serveWindow(ctx, client, d.url, s, c.seed, &next, window, nil)
	} else {
		outs, elapsed = serveWindow(ctx, client, d.url, s, c.seed, &next, window, nil)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("served run exceeded its %v wall cap; pochoird killed", serveWallCap)
	}
	rss := d.peakRSSMB()
	sum, err := d.stop()
	stopped = true
	if err != nil {
		return err
	}

	w, plain := c.judgeJobs(s, outs), c.judgeJobs(s, plainOuts)
	accepted += w.accepted + plain.accepted
	shed, coalesced := w.shed+plain.shed, w.coalesced+plain.coalesced
	if sum.Drain.TimedOut || sum.Drain.Failed != 0 || sum.Drain.Completed != accepted {
		c.judge(false, fmt.Sprintf("drain summary %+v, but %d jobs were accepted", sum.Drain, accepted))
	}
	if coalesced != 0 {
		c.judge(false, fmt.Sprintf("%d submissions coalesced although every seed is distinct", coalesced))
	}
	if len(w.lat) == 0 {
		return fmt.Errorf("no job succeeded in the window")
	}

	if !c.trace {
		c.set("setup_s", median(startups), len(startups))
		c.set("mupdates_per_s", ratio(float64(len(w.lat))*float64(s.box.updates())/1e6, elapsed.Seconds()), len(w.lat))
		c.set("latency_ms_p50", median(w.lat), len(w.lat))
		if err := c.loopsReplays(s, &loops); err != nil {
			return err
		}
		c.set("loops_mupdates_per_s", s.box.mupdates(median(loops)), len(loops))
		return nil
	}

	p50, n := median(w.lat), len(w.lat)
	c.set("bench.trace_overhead_share", ratio(p50-median(plain.lat), median(plain.lat)), n)
	c.set("gateway.jobs_per_s", ratio(float64(n), elapsed.Seconds()), n)
	c.set("gateway.queue_wait_ms_p50", median(w.queued), n)
	c.set("gateway.run_ms_p50", median(w.run), n)
	overhead := make([]float64, n)
	for i := range overhead {
		overhead[i] = w.lat[i] - w.queued[i] - w.run[i]
	}
	c.set("gateway.overhead_ms_p50", median(overhead), n)
	c.set("gateway.latency_ms_p90", percentile(w.lat, 0.90), n)
	c.set("gateway.latency_ms_p99", percentile(w.lat, 0.99), n)
	c.set("gateway.shed_count", float64(shed), len(outs)+len(plainOuts))
	c.set("gateway.coalesced_count", float64(coalesced), len(outs)+len(plainOuts))
	c.set("gateway.peak_rss_mb", rss, 1)
	c.logf("   served p50 %.3f ms: gateway run is %.0f%% of it\n", p50, 100*ratio(median(w.run), p50))
	return c.serveProbes(s, p50)
}

// serveProbes replays the submission in-process stage by stage and times
// the compiler's other entry points on the same spec.
func (c *runCtx) serveProbes(s serveSpec, latencyP50 float64) error {
	// As many replays at once as the daemon ran jobs at once, so a replayed
	// run shares the cores the way a served run did.
	trap, err := c.replayLoop(s, pochoir.Options{}, c.rec, s.clients, c.budget(0.15))
	if err != nil {
		return err
	}
	loopsRuns, err := c.replayLoop(s, pochoir.Options{Algorithm: core.LOOPS}, nil, 1, c.budget(0.05))
	if err != nil {
		return err
	}
	var compile, instance, stages, loops []float64
	for _, rt := range trap {
		compile = append(compile, float64(rt.compile)/float64(time.Microsecond))
		instance = append(instance, float64(rt.instance)/float64(time.Microsecond))
		stages = append(stages, float64(rt.compile+rt.instance+rt.init+rt.run+rt.checksum)/float64(time.Millisecond))
	}
	for _, rt := range loopsRuns {
		loops = append(loops, rt.run.Seconds())
	}
	last := trap[len(trap)-1]
	c.set("compiler.compile_us", median(compile), len(compile))
	c.set("compiler.instance_us", median(instance), len(instance))
	c.set("compiler.tokens", float64(last.stats.Tokens), 1)
	c.set("compiler.source_bytes", float64(last.stats.SourceBytes), 1)
	c.set("resilience.segments", float64(len(last.report.Segments)), 1)
	c.set("resilience.attempts", float64(last.report.Attempts), 1)
	c.set("resilience.retries", float64(last.report.Retries), 1)
	c.set("loops.engine_mupdates_per_s", s.box.mupdates(median(loops)), len(loops))
	c.set("bench.unattributed_share", 1-ratio(median(stages), latencyP50), len(stages))

	// The interpreter alone: Instance.Run on the job's box, no supervisor.
	checked, err := compiler.CompileSource(s.spec)
	if err != nil {
		return err
	}
	var interp, allocs []float64
	for i := 0; i < probeReps; i++ {
		inst, err := checked.NewInstance(s.box.sizes...)
		if err != nil {
			return err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := c.rec.time(200000+i, -1, "compiler.interp_run", func() { err = inst.Run(s.box.steps, pochoir.Options{}) })
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		interp = append(interp, s.box.mupdates(d.Seconds()))
		allocs = append(allocs, ratio(float64(m1.Mallocs-m0.Mallocs), float64(s.box.updates())))
		if i == 0 {
			c.set("grid.getset_mops_per_s", getsetMops(c.rec, inst.Arrays[checked.Prog.Arrays[0].Name]), 1)
		}
	}
	c.set("compiler.interp_mupdates_per_s", median(interp), len(interp))
	c.set("compiler.interp_allocs_per_update", median(allocs), len(allocs))

	var genUS, genBytes float64
	for _, style := range []compiler.Style{compiler.SplitPointer, compiler.SplitMacroShadow} {
		var src []byte
		d := c.rec.time(300000, -1, "compiler.codegen", func() { src, err = compiler.Codegen(checked, "gen", style) })
		if err != nil {
			return err
		}
		genUS += float64(d) / float64(time.Microsecond)
		genBytes += float64(len(src))
	}
	c.set("compiler.codegen_us", genUS, 2)
	c.set("compiler.codegen_bytes", genBytes, 2)
	return nil
}

// getsetMops times a tight loop over Array.Get/Set — the checked accessors
// every Phase-1 and interpreted kernel goes through — in 10^6 calls/s. Small
// arrays are swept repeatedly so the loop makes about two million calls.
func getsetMops(rec *spanRecorder, a *pochoir.Array[float64]) float64 {
	sweeps := max(1, (1<<20)/a.PointsPerSlot())
	d := rec.time(400000, -1, "grid.getset", func() {
		for s := 0; s < sweeps; s++ {
			switch a.NDims() {
			case 1:
				for x := 0; x < a.Size(0); x++ {
					a.Set(1, a.Get(0, x), x)
				}
			case 2:
				for x := 0; x < a.Size(0); x++ {
					for y := 0; y < a.Size(1); y++ {
						a.Set(1, a.Get(0, x, y), x, y)
					}
				}
			}
		}
	})
	return ratio(2*float64(sweeps)*float64(a.PointsPerSlot())/1e6, d.Seconds())
}

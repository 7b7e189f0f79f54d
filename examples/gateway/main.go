// Gateway: stencil-as-a-service end to end, in one process. The program
// starts the serving gateway on an ephemeral port (the same engine behind
// cmd/pochoird), then plays a client against it over real HTTP:
//
//  1. submits a heat-kernel job and waits for its checksum;
//  2. submits the identical job twice while it is in flight and shows the
//     second submission coalescing onto the first — one execution, two
//     callers;
//  3. bursts far past queue capacity and counts the 429 + Retry-After
//     sheds — overload is refused, never buffered without bound;
//  4. scrapes the gateway's own /metrics for the job counters;
//  5. drains gracefully, the SIGTERM path of the daemon.
//
// Run from the repository root with:
//
//	go run ./examples/gateway
//
// For the long-running daemon itself, see cmd/pochoird.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"pochoir/internal/gateway"
)

const spec = `stencil heat { dims: 1; array u; boundary u: periodic;
kernel { u(t+1,x) = 0.25*u(t,x-1) + 0.5*u(t,x) + 0.25*u(t,x+1); } }`

func post(base string, sub gateway.Submission) (int, *gateway.JobStatus, string) {
	body, _ := json.Marshal(sub)
	req, _ := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "example")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var shed struct {
			Reason string `json:"reason"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&shed)
		return resp.StatusCode, nil, resp.Header.Get("Retry-After")
	}
	var st gateway.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode, &st, ""
}

func wait(base, id string) *gateway.JobStatus {
	for {
		resp, err := http.Get(base + "/jobs/" + id + "?wait_ms=2000")
		if err != nil {
			log.Fatal(err)
		}
		var st gateway.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		if st.State == gateway.StateDone || st.State == gateway.StateFailed {
			return &st
		}
	}
}

func main() {
	g := gateway.New(gateway.Config{
		Workers:             2,
		QueueDepth:          4,
		TenantBurst:         1000,
		TenantMaxConcurrent: 1000,
	})
	srv, err := gateway.Serve("127.0.0.1:0", g)
	if err != nil {
		log.Fatal(err)
	}
	base := srv.URL()
	fmt.Printf("gateway listening on %s\n\n", base)

	// 1. One job, submit to checksum.
	_, st, _ := post(base, gateway.Submission{Spec: spec, Sizes: []int{4096}, Steps: 256, Seed: 1})
	fin := wait(base, st.ID)
	fmt.Printf("job %s: %s in %.0fms, checksum %s\n", fin.ID, fin.State, fin.RunSeconds*1000, fin.Checksum)

	// 2. Coalescing: identical submissions while the first is in flight.
	long := gateway.Submission{Spec: spec, Sizes: []int{1 << 14}, Steps: 400, Seed: 2}
	_, first, _ := post(base, long)
	_, second, _ := post(base, long)
	fmt.Printf("identical resubmission joined job %s (coalesced=%d, same id: %v)\n",
		second.ID, second.Coalesced, second.ID == first.ID)
	wait(base, first.ID)

	// 3. Overload: saturate the pool (2 workers) and the queue (4 slots)
	// with slow jobs, then burst — the excess must shed with 429, never
	// buffer without bound.
	for i := 0; i < 6; i++ {
		post(base, gateway.Submission{Spec: spec, Sizes: []int{1 << 15}, Steps: 2000, Seed: int64(10 + i)})
	}
	accepted, shed := 0, 0
	retryAfter := ""
	for i := 0; i < 12; i++ {
		code, _, ra := post(base, gateway.Submission{Spec: spec, Sizes: []int{512}, Steps: 32, Seed: int64(100 + i)})
		if code == http.StatusAccepted {
			accepted++
		} else {
			shed++
			retryAfter = ra
		}
	}
	fmt.Printf("burst of 12 at a full queue: %d accepted, %d shed with 429 (Retry-After: %ss)\n", accepted, shed, retryAfter)

	// 4. Self-scrape: the gateway's own counters from its own listener.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "pochoir_gateway_jobs_") && !strings.HasPrefix(line, "#") {
			fmt.Printf("  %s\n", line)
		}
	}

	// 5. Graceful drain — what SIGTERM does to cmd/pochoird.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sum := g.Drain(ctx)
	fmt.Printf("drained: %d completed, %d failed, timed out: %v\n", sum.Completed, sum.Failed, sum.TimedOut)
	_ = srv.Close()
}

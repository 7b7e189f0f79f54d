package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pochoir/internal/metrics"
	"pochoir/internal/profile"
	"pochoir/internal/trace"
)

// shedResponse is the JSON body of every refused submission.
type shedResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

// NewHandler builds the gateway's HTTP surface:
//
//	POST /jobs       submit a Submission (tenant from X-Tenant, trace
//	                 context from traceparent); 202 + status, traceparent
//	                 echoed (or minted) on the response
//	GET  /jobs       list job statuses
//	GET  /jobs/{id}  one job's status, including its live run progress
//	GET  /healthz    200 while admitting, 503 while draining
//
// plus the full metrics monitor (/metrics, /progressz, /healthz is ours,
// /debug/pprof/...) from the shared registry, so a single hardened listener
// serves both the control plane and its own observability.
func NewHandler(g *Gateway) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
		var sub Submission
		if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, shedResponse{Error: err.Error(), Reason: "bad_request"})
			return
		}
		// A caller-supplied W3C traceparent joins the job to the caller's
		// distributed trace; a malformed one is rejected explicitly rather
		// than silently starting a fresh trace.
		tp, err := trace.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				shedResponse{Error: err.Error(), Reason: "bad_traceparent"})
			return
		}
		sub.TraceParent = tp
		st, serr := g.Submit(r.Header.Get("X-Tenant"), sub)
		if serr != nil {
			if serr.RetryAfter > 0 {
				secs := int(math.Ceil(serr.RetryAfter.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			}
			if serr.Traceparent != "" {
				w.Header().Set("traceparent", serr.Traceparent)
			}
			writeJSON(w, serr.Code, shedResponse{Error: serr.Error(), Reason: serr.Reason})
			return
		}
		if st.Traceparent != "" {
			w.Header().Set("traceparent", st.Traceparent)
		}
		writeJSON(w, http.StatusAccepted, st)
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		// ?wait_ms=N blocks (bounded) until the job is terminal — the smoke
		// harness polls less and the CLI gets synchronous submit-and-wait.
		if ms := r.URL.Query().Get("wait_ms"); ms != "" {
			var n int
			if _, err := fmt.Sscanf(ms, "%d", &n); err == nil && n > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(n)*time.Millisecond)
				st, err := g.Wait(ctx, id)
				cancel()
				if err == nil {
					writeJSON(w, http.StatusOK, st)
					return
				}
				// Unknown job falls through to the 404; a wait timeout
				// serves the current (non-terminal) snapshot below.
			}
		}
		st := g.Job(id)
		if st == nil {
			writeJSON(w, http.StatusNotFound, shedResponse{Error: "unknown job " + id, Reason: "not_found"})
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, g.JobList())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if g.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	// Everything else — /metrics, /progressz, /slo, /tracez (when tracing
	// is on), /profilez (when profiling is on), /debug/pprof/... — is the
	// registry's monitor surface.
	monOpts := []metrics.HandlerOption{metrics.WithSLO(g.SLO())}
	if tr := g.Tracer(); tr != nil {
		monOpts = append(monOpts, metrics.WithTracez(trace.Handler(tr)))
	}
	if p := g.Profiler(); p != nil {
		monOpts = append(monOpts, metrics.WithProfilez(profile.NewHandler(p)))
	}
	mux.Handle("/", metrics.NewHandler(g.Registry(), monOpts...))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Server is the gateway bound to a listener.
type Server struct {
	g   *Gateway
	ln  net.Listener
	srv *http.Server
}

// Serve starts the gateway's hardened HTTP server on addr (":0" for an
// ephemeral port).
func Serve(addr string, g *Gateway) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	s := &Server{g: g, ln: ln, srv: metrics.HardenedServer(NewHandler(g))}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the base http:// URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close hard-stops the HTTP server and the gateway.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.g.Close()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// Daemon runs the full pochoird lifecycle: serve on addr, announce the
// bound address on out, and on SIGTERM/SIGINT drain gracefully — stop
// admitting (new submissions get 503), let the pool finish or durably
// spill every admitted job, emit a JSON DrainSummary line on out, and
// return. cmd/pochoird is a flag-parsing shim around this function, and
// the smoke test re-executes it as a child process to prove the signal
// path end to end.
func Daemon(cfg Config, addr string, drainTimeout time.Duration, out io.Writer) error {
	// The handler goes in before the address is announced: a supervisor
	// may signal the moment it reads the listen line, and a SIGTERM with no
	// handler yet would kill the process instead of draining it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	g := New(cfg)
	s, err := Serve(addr, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pochoird listening on %s\n", s.URL())

	got := <-sig
	fmt.Fprintf(out, "pochoird: %v: draining\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	sum := g.Drain(ctx)
	cancel()

	// The listener closes only after the drain: in-flight status polls and
	// the final metrics scrape keep working while the pool empties.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = s.srv.Shutdown(sctx)
	scancel()
	_ = s.ln.Close()

	enc := json.NewEncoder(out)
	if err := enc.Encode(struct {
		Drain DrainSummary `json:"drain"`
	}{sum}); err != nil {
		return err
	}
	if sum.TimedOut {
		return fmt.Errorf("pochoird: drain timed out after %v", drainTimeout)
	}
	return nil
}

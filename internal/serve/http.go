package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"strings"

	"cimsa/internal/fairsched"
	"cimsa/internal/fleet"
	"cimsa/internal/problem"
	"cimsa/internal/problem/tspprob"

	// The built-in problem types self-register with the registry; the
	// SubmitRequest payload sections correspond one-to-one.
	_ "cimsa/internal/problem/isingprob"
	_ "cimsa/internal/problem/maxcutprob"
)

// Server is the HTTP front end over a Scheduler.
//
// Endpoints (see README "Solve service"):
//
//	POST   /v1/jobs             submit a job -> 202 + status JSON
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/events SSE progress stream (replay + live)
//	GET    /v1/jobs/{id}/result finished report (409 until terminal)
//	POST   /v1/jobs/{id}/cancel request cancel -> 202 + status snapshot
//	                            (DELETE /v1/jobs/{id} is an alias); a
//	                            running job transitions asynchronously
//	DELETE /v1/jobs/{id}        alias for cancel
//	GET    /metrics             Prometheus text metrics
//	GET    /healthz             liveness probe
type Server struct {
	sched *Scheduler
	// Limits rejects oversized instances before they reach the queue —
	// and before any size-proportional allocation (zero fields =
	// unlimited). Untrusted clients can otherwise queue arbitrarily
	// large solves.
	Limits problem.Limits
	// MaxBodyBytes bounds request bodies (default 32 MiB — TSPLIB
	// uploads are line-oriented text and 100k cities fit comfortably).
	MaxBodyBytes int64

	// Fleet, when non-nil, reports coordinator fleet stats in /healthz
	// (set by cmd/cimserve in coordinator mode).
	Fleet func() fleet.Stats

	// Journal-recovery state, reported by /healthz (503 while a Recover
	// pass is still re-enqueuing jobs).
	recovering       atomic.Bool
	recovered        atomic.Int64
	recoveryFailures atomic.Int64
}

// NewServer wraps a scheduler.
func NewServer(sched *Scheduler) *Server {
	return &Server{sched: sched, MaxBodyBytes: 32 << 20}
}

// SubmitRequest names a problem type and carries its payload section.
// Exactly one payload section (tsp / maxcut / ising / qubo) may be
// set; the optional "problem" field must agree with it when both are
// present. The pre-registry TSP-only schema — name / tsplib / generate
// / options at the top level — is still accepted and routed to "tsp",
// so old clients and old journal records keep working unchanged.
type SubmitRequest struct {
	// Problem selects the registered problem type. Optional when a
	// payload section or the legacy TSP fields identify it.
	Problem string `json:"problem,omitempty"`

	// Legacy TSP shorthand (the pre-registry schema).
	Name     string                `json:"name,omitempty"`
	TSPLIB   string                `json:"tsplib,omitempty"`
	Generate *tspprob.GenerateSpec `json:"generate,omitempty"`
	Options  tspprob.OptionsSpec   `json:"options,omitempty"`

	// Per-problem payload sections; each decodes under its adapter's
	// strict schema (see the registered problem types).
	TSP    json.RawMessage `json:"tsp,omitempty"`
	MaxCut json.RawMessage `json:"maxcut,omitempty"`
	Ising  json.RawMessage `json:"ising,omitempty"`
	QUBO   json.RawMessage `json:"qubo,omitempty"`
}

// GenerateSpec and OptionsSpec are the TSP wire specs, re-exported
// from their adapter package for source compatibility.
type (
	GenerateSpec = tspprob.GenerateSpec
	OptionsSpec  = tspprob.OptionsSpec
)

// ResultResponse is the finished-job payload: the status plus the full
// problem-specific report (for TSP: tour, statistics, hardware
// estimate; for maxcut/ising/qubo: the assignment and its scores).
type ResultResponse struct {
	Status
	Report any `json:"report"`
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports liveness plus journal-recovery status: 503
// while a Recover pass is still re-enqueuing jobs (readiness gate),
// 200 with the recovery tallies afterwards.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":         "ok",
		"recovering":     false,
		"jobs_recovered": s.recovered.Load(),
	}
	if n := s.recoveryFailures.Load(); n > 0 {
		resp["recovery_failures"] = n
	}
	if s.Fleet != nil {
		resp["fleet"] = s.Fleet()
	}
	if s.recovering.Load() {
		resp["status"] = "recovering"
		resp["recovering"] = true
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeBody strictly decodes a size-capped JSON request body into v
// (unknown fields are errors), answering 413 for an oversized body and
// 400 for a malformed one; it reports whether v was decoded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	maxBody := s.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		}
		return false
	}
	return true
}

// tenantHeader returns the X-Tenant header, which selects the
// fair-scheduling lane and quota bucket (absent means the default
// tenant). A syntactically invalid name is answered with a 400 rather
// than silently folded, so a misconfigured client learns immediately;
// ok is false then.
func tenantHeader(w http.ResponseWriter, r *http.Request) (tenant string, ok bool) {
	tenant = r.Header.Get("X-Tenant")
	if tenant != "" && !fairsched.ValidName(tenant) {
		writeError(w, http.StatusBadRequest, "invalid X-Tenant header: need 1..64 bytes of [A-Za-z0-9._-]")
		return "", false
	}
	return tenant, true
}

// prepare builds a request's validated task and its journal source:
// the parsed request re-marshalled, so it round-trips through the same
// decoder at recovery and a recovered job is built from exactly what
// this submission parsed. Its errors are the client's (400).
func (s *Server) prepare(req *SubmitRequest) (BatchItem, error) {
	task, err := s.buildTask(req)
	if err != nil {
		return BatchItem{}, err
	}
	source, err := json.Marshal(req)
	if err != nil {
		return BatchItem{}, fmt.Errorf("request not journalable: %w", err)
	}
	return BatchItem{Task: task, Source: source}, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	item, err := s.prepare(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant, ok := tenantHeader(w, r)
	if !ok {
		return
	}
	job, err := s.sched.Submit(tenant, item.Task, item.Source)
	var rle *fairsched.RateLimitError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, job.Status())
	case errors.As(err, &rle):
		w.Header().Set("Retry-After", retryAfterSeconds(rle.RetryAfter))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrShuttingDown) || errors.Is(err, ErrJournal):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// maxBatchJobs caps one batch submission; a bigger batch should be
// split, not allowed to hold the scheduler lock arbitrarily long.
const maxBatchJobs = 256

// BatchEntry is one per-item outcome in a batch-submit response:
// exactly one of Status and Error is set.
type BatchEntry struct {
	*Status `json:",omitempty"`
	Error   string `json:"error,omitempty"`
}

// handleSubmitBatch accepts {"jobs": [SubmitRequest, ...]} and admits
// the whole batch in one scheduler critical section with one journal
// fsync — the amortization that makes submitting hundreds of small
// instances cheap. Admission is per-item (each item still pays the
// tenant's quota and rate token) and the response reports each item's
// status or error in order; the HTTP status is 200 whenever the batch
// itself was well-formed, even if every item was rejected.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Jobs []SubmitRequest `json:"jobs"`
	}
	if !s.decodeBody(w, r, &body) {
		return
	}
	if len(body.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(body.Jobs) > maxBatchJobs {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch exceeds %d jobs", maxBatchJobs))
		return
	}
	tenant, ok := tenantHeader(w, r)
	if !ok {
		return
	}
	entries := make([]BatchEntry, len(body.Jobs))
	items := make([]BatchItem, len(body.Jobs))
	for i := range body.Jobs {
		var err error
		if items[i], err = s.prepare(&body.Jobs[i]); err != nil {
			entries[i].Error = err.Error()
		}
	}
	for i, res := range s.sched.SubmitBatch(tenant, items) {
		switch {
		case entries[i].Error != "":
			// rejected before reaching the scheduler
		case res.Err != nil:
			entries[i].Error = res.Err.Error()
		default:
			st := res.Job.Status()
			entries[i].Status = &st
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": entries})
}

// retryAfterSeconds renders a token-bucket wait as a whole-second
// Retry-After value, rounded up and never below 1 (a Retry-After of 0
// invites an immediate, equally doomed retry).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// buildTask resolves the request to a validated task via the problem
// registry under the server's limits.
func (s *Server) buildTask(req *SubmitRequest) (problem.Task, error) {
	return TaskFor(req, s.Limits)
}

// TaskFor resolves a submit request to a validated task via the problem
// registry. The errors name the offending field so clients learn the
// schema from the 400, not from the source. Exported so fleet workers
// rebuild a claimed job's task from its journaled source body through
// exactly the path the coordinator validated it with.
func TaskFor(req *SubmitRequest, limits problem.Limits) (problem.Task, error) {
	type section struct {
		name    string
		payload json.RawMessage
	}
	var sections []section
	for _, sec := range []section{
		{"tsp", req.TSP},
		{"maxcut", req.MaxCut},
		{"ising", req.Ising},
		{"qubo", req.QUBO},
	} {
		if len(sec.payload) > 0 {
			sections = append(sections, sec)
		}
	}
	legacy := req.Name != "" || req.TSPLIB != "" || req.Generate != nil
	switch {
	case len(sections) > 1:
		names := make([]string, len(sections))
		for i, sec := range sections {
			names[i] = sec.name
		}
		return nil, fmt.Errorf("specify exactly one problem section (got %s)", strings.Join(names, ", "))
	case len(sections) == 1:
		sec := sections[0]
		if legacy {
			return nil, fmt.Errorf("legacy tsp fields (name/tsplib/generate) cannot be combined with the %q section", sec.name)
		}
		if req.Problem != "" && req.Problem != sec.name {
			return nil, fmt.Errorf("problem %q does not match the %q payload section", req.Problem, sec.name)
		}
		t, ok := problem.Lookup(sec.name)
		if !ok {
			return nil, fmt.Errorf("unknown problem %q (registered: %s)", sec.name, strings.Join(problem.Names(), ", "))
		}
		task, err := t.NewTask(sec.payload, limits)
		if err != nil {
			// Adapters return concrete pointers; don't let a typed nil
			// escape as a non-nil problem.Task.
			return nil, err
		}
		return task, nil
	default:
		// No payload section: the legacy TSP-only schema (also how every
		// pre-registry journal record replays).
		if req.Problem != "" && req.Problem != tspprob.Name {
			if _, ok := problem.Lookup(req.Problem); !ok {
				return nil, fmt.Errorf("unknown problem %q (registered: %s)", req.Problem, strings.Join(problem.Names(), ", "))
			}
			return nil, fmt.Errorf("problem %q needs its %q payload section", req.Problem, req.Problem)
		}
		spec := tspprob.Spec{Name: req.Name, TSPLIB: req.TSPLIB, Generate: req.Generate, Options: req.Options}
		task, err := tspprob.TaskFromSpec(&spec, limits)
		if err != nil {
			return nil, err
		}
		return task, nil
	}
}

// handleList reports every tracked job plus per-problem × state and
// per-tenant × state summaries ("problems": {"tsp": {"done": 2, ...}},
// "tenants": {"default": {"queued": 1, ...}}). Both summaries partition
// the same job set, so their totals agree with each other and with the
// unlabeled metrics.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.List()
	problems := map[string]map[State]int{}
	tenants := map[string]map[State]int{}
	for _, st := range jobs {
		m := problems[st.Problem]
		if m == nil {
			m = map[State]int{}
			problems[st.Problem] = m
		}
		m[st.State]++
		tm := tenants[st.Tenant]
		if tm == nil {
			tm = map[State]int{}
			tenants[st.Tenant] = tm
		}
		tm[st.State]++
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "problems": problems, "tenants": tenants})
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return nil, false
	}
	return job, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobFor(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st := job.Status()
	if !st.State.Terminal() {
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s; result not ready", st.ID, st.State))
		return
	}
	var report any
	if res := job.Result(); res != nil {
		report = res.Detail
	}
	writeJSON(w, http.StatusOK, ResultResponse{Status: st, Report: report})
}

// handleCancel requests cancellation and returns 202 Accepted with a
// status snapshot: a queued job is finalized synchronously (the snapshot
// already says "canceled"), but a running job's solver only observes
// the cancelled context at its next phase boundary, so the snapshot may
// still say "running" — clients poll the status or watch the SSE stream
// for the terminal "canceled" frame.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.sched.Cancel(job.ID)
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.sched.Metrics.WriteTo(w)
}

// handleEvents streams the job's event history and then live events as
// SSE until the terminal event, the client disconnecting, or the
// stream being unsupported. Events map one-to-one onto the solver's
// write-back epochs plus one per finished level and a final terminal
// frame; each frame is "event: <type>", "id: <seq>" and a JSON data
// payload (the Event schema).
//
// A reconnecting client sends the standard Last-Event-ID header (the
// last "id:" it saw); replay frames with Seq <= that id are skipped so
// the stream resumes instead of duplicating history. When the replay
// buffer has evicted events the client has not seen, the stream opens
// with a synthetic "truncated" frame (no id, so it never perturbs
// Last-Event-ID) carrying the evicted count and the first seq still
// available.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	lastID := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			lastID = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	replay, evicted, ch, unsub := job.Subscribe()
	defer unsub()
	if lastID < evicted {
		// Events (lastID, evicted] are gone from the buffer: tell the
		// client its view has a hole before resuming at evicted+1.
		trunc := Event{Type: "truncated", Job: job.ID, Evicted: evicted, FirstSeq: evicted + 1}
		if writeSSEFrame(w, trunc, false) != nil {
			return
		}
	}
	for _, ev := range replay {
		if ev.Seq <= lastID {
			continue
		}
		if writeSSE(w, ev) != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if writeSSE(w, ev) != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, ev Event) error {
	return writeSSEFrame(w, ev, true)
}

// writeSSEFrame emits one SSE frame; withID controls the "id:" line —
// synthetic frames (like "truncated") omit it so they never overwrite
// the client's stored Last-Event-ID.
func writeSSEFrame(w http.ResponseWriter, ev Event, withID bool) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if withID {
		_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	}
	return err
}

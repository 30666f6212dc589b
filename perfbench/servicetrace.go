package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cimsa/internal/checkpoint"
	"cimsa/internal/fleet"
	"cimsa/internal/problem"
	"cimsa/internal/serve"
)

// spanHeader carries the load generator's span ID to the server-side
// middleware, which parents its span under it.
const spanHeader = "X-Bench-Span"

// serviceTrace times, from outside the program, the calls the service
// makes into its layers: the HTTP submit path, the fleet dispatcher,
// the workers' transport, task builder, solve and checkpoint hook, and
// the claim log. Each wrapper records its span, with the job's ID, when
// the call returns; linkJobSpans later parents the spans by job.
type serviceTrace struct {
	rec *Recorder

	mu sync.Mutex
	// ckptBytes is the size of every snapshot a worker shipped.
	ckptBytes []float64
	// lastSnapshot is each job's newest shipped snapshot, saved again
	// by probe after the phase.
	lastSnapshot map[string][]byte
}

func newServiceTrace() *serviceTrace {
	return &serviceTrace{rec: newRecorder(), lastSnapshot: map[string][]byte{}}
}

// spanParents names, for each span the wrappers record, the span of the
// same job it runs inside.
var spanParents = map[string]string{
	"fleet.offer":        "serve.slot",
	"fleet.claim":        "fleet.offer",
	"fleet.claimlog":     "fleet.offer",
	"problem.taskfor":    "fleet.offer",
	"fleet.worker_solve": "fleet.offer",
	"checkpoint.hook":    "fleet.worker_solve",
	"fleet.ship":         "checkpoint.hook",
	"fleet.complete":     "fleet.offer",
}

// middleware times the real submit handler, under the load generator's
// span for the request.
func (t *serviceTrace) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.rec.Add("serve.submit", "req-"+strconv.FormatInt(parent, 10), parent, start, time.Now())
	})
}

// tracedDispatcher times the coordinator's Offer: the scheduler's view
// of a fleet solve.
type tracedDispatcher struct {
	d  serve.FleetDispatcher
	tr *serviceTrace
}

func (d *tracedDispatcher) Offer(ctx context.Context, job fleet.Job, run problem.Run) (*problem.Result, error) {
	start := time.Now()
	res, err := d.d.Offer(ctx, job, run)
	d.tr.rec.Add("fleet.offer", job.ID, 0, start, time.Now())
	return res, err
}

// tracedClaimLog times the coordinator's journaled claim records.
type tracedClaimLog struct {
	fleet.ClaimLog
	tr *serviceTrace
}

func (l *tracedClaimLog) Claimed(id, node string, expires time.Time) error {
	start := time.Now()
	err := l.ClaimLog.Claimed(id, node, expires)
	l.tr.rec.Add("fleet.claimlog", id, 0, start, time.Now())
	return err
}

func (l *tracedClaimLog) Released(id string) error {
	start := time.Now()
	err := l.ClaimLog.Released(id)
	l.tr.rec.Add("fleet.claimlog", id, 0, start, time.Now())
	return err
}

// tracedTransport times one worker's calls to the coordinator. A worker
// solves one job at a time, so the last granted job is the one its
// BuildTask and solve belong to.
type tracedTransport struct {
	fleet.Transport
	tr *serviceTrace

	mu      sync.Mutex
	current string
}

func (tt *tracedTransport) Claim(node string) (*fleet.Grant, error) {
	start := time.Now()
	g, err := tt.Transport.Claim(node)
	if g == nil {
		tt.tr.rec.Add("fleet.claim_empty", "", 0, start, time.Now())
		return g, err
	}
	tt.tr.rec.Add("fleet.claim", g.JobID, 0, start, time.Now())
	tt.mu.Lock()
	tt.current = g.JobID
	tt.mu.Unlock()
	return g, err
}

// ShipCheckpoint times the upload of a snapshot and keeps the bytes the
// worker read for it, so probe can save the job's last one again.
func (tt *tracedTransport) ShipCheckpoint(jobID, node string, token uint64, name string, data []byte) error {
	start := time.Now()
	err := tt.Transport.ShipCheckpoint(jobID, node, token, name, data)
	tt.tr.rec.Add("fleet.ship", jobID, 0, start, time.Now())
	tt.tr.mu.Lock()
	tt.tr.ckptBytes = append(tt.tr.ckptBytes, float64(len(data)))
	tt.tr.lastSnapshot[jobID] = data
	tt.tr.mu.Unlock()
	return err
}

func (tt *tracedTransport) Complete(jobID, node string, token uint64, res *problem.Result, errMsg string) error {
	start := time.Now()
	err := tt.Transport.Complete(jobID, node, token, res, errMsg)
	tt.tr.rec.Add("fleet.complete", jobID, 0, start, time.Now())
	return err
}

// wrapBuild times the worker's BuildTask (decoding plus serve.TaskFor)
// and returns tasks whose solve is timed too.
func (tt *tracedTransport) wrapBuild(build func(json.RawMessage) (problem.Task, error)) func(json.RawMessage) (problem.Task, error) {
	return func(source json.RawMessage) (problem.Task, error) {
		tt.mu.Lock()
		id := tt.current
		tt.mu.Unlock()
		start := time.Now()
		task, err := build(source)
		tt.tr.rec.Add("problem.taskfor", id, 0, start, time.Now())
		if err != nil {
			return nil, err
		}
		return &timedTask{Task: task, tr: tt.tr, id: id}, nil
	}
}

// timedTask is a worker-side task whose Solve and checkpoint hook are
// timed.
type timedTask struct {
	problem.Task
	tr *serviceTrace
	id string
}

func (t *timedTask) Solve(ctx context.Context, run problem.Run) (*problem.Result, error) {
	if hook := run.OnCheckpointWrite; hook != nil {
		run.OnCheckpointWrite = func(path string) {
			start := time.Now()
			hook(path)
			t.tr.rec.Add("checkpoint.hook", t.id, 0, start, time.Now())
		}
	}
	start := time.Now()
	res, err := t.Task.Solve(ctx, run)
	t.tr.rec.Add("fleet.worker_solve", t.id, 0, start, time.Now())
	return res, err
}

// probe times, after the phase has ended and outside every measured
// path, the two layers the submit and checkpoint paths call inside the
// program where no seam reaches: a serve.Journal append of each job's
// request to a probe journal, and checkpoint.Save of each job's last
// shipped snapshot to a probe file, both on the stack's disk.
func (t *serviceTrace) probe(dir string, runs []*jobRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	journal, _, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	defer journal.Close()
	for _, jr := range runs {
		if !jr.ok() {
			continue
		}
		start := time.Now()
		if err := journal.Submitted("probe-"+jr.id, jr.spec.Tenant, start, "tsp", jr.spec.Body); err != nil {
			return err
		}
		t.rec.Add("serve.journal_append", jr.id, 0, start, time.Now())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, data := range t.lastSnapshot {
		snap, err := checkpoint.Decode(bytes.NewReader(data))
		if err != nil {
			return err
		}
		path := filepath.Join(dir, id+".ckpt")
		start := time.Now()
		if err := checkpoint.Save(path, snap); err != nil {
			return err
		}
		t.rec.Add("checkpoint.save", id, 0, start, time.Now())
		os.Remove(path)
	}
	return nil
}

// linkJobSpans adds each finished job's span tree from its status: the
// request from when it was sent until it was seen done, its HTTP submit
// (parent of the middleware's span) and then either, for a job answered
// by the result cache, its wait there (a hit, or a ride on an identical
// job in flight), or its queue wait, slot and retirement. It then
// parents the wrappers' spans by job.
func (t *serviceTrace) linkJobSpans(runs []*jobRun) {
	rec := t.rec
	for _, jr := range runs {
		if !jr.ok() {
			continue
		}
		root := rec.Add("bench.job", jr.id, 0, jr.sent, jr.done)
		rec.AddID(jr.postSpan, "http.post", jr.id, root, jr.sent, jr.acked)
		st := jr.status
		if st.Started == nil || st.Finished == nil {
			rec.Add("rescache.wait", jr.id, root, jr.acked, jr.done)
			continue
		}
		rec.Add("serve.queue", jr.id, root, st.Submitted, *st.Started)
		rec.Add("serve.slot", jr.id, root, *st.Started, *st.Finished)
		rec.Add("serve.retire", jr.id, root, *st.Finished, jr.done)
	}
	rec.Link(spanParents)
}

// report stores the per-layer metrics of the traced phase, computed
// from the recorded spans.
func (t *serviceTrace) report(out *outcome) {
	spans := t.rec.Spans()
	byID := make(map[int64]Span, len(spans))
	byName := map[string][]Span{}
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}
	durMS := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, ms(s.End-s.Start))
		}
		return xs
	}
	// gapMS is, for each span of name, its parent's duration minus its
	// own: the part of the parent call outside it.
	gapMS := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			if p, ok := byID[s.Parent]; ok {
				xs = append(xs, ms((p.End-p.Start)-(s.End-s.Start)))
			}
		}
		return xs
	}
	solved := float64(len(byName["fleet.worker_solve"]))
	claims, empty := durMS("fleet.claim"), durMS("fleet.claim_empty")
	m := out.metrics
	m["problem.taskfor_ms_p50"] = median(durMS("problem.taskfor"))
	m["serve.journal_append_ms_p50"] = median(durMS("serve.journal_append"))
	out.recordTail("serve.journal_append_ms_tail", durMS("serve.journal_append"))
	m["serve.slot_overhead_ms_p50"] = median(gapMS("fleet.offer"))
	m["checkpoint.save_ms_p50"] = median(durMS("checkpoint.save"))
	m["fleet.offer_ms_p50"] = median(durMS("fleet.offer"))
	m["fleet.worker_solve_ms_p50"] = median(durMS("fleet.worker_solve"))
	m["fleet.claim_wait_ms_p50"] = median(gapMS("fleet.worker_solve"))
	m["fleet.claim_rtt_ms_p50"] = median(append(claims, empty...))
	m["fleet.claim_empty_ratio"] = ratio(float64(len(empty)), float64(len(claims)+len(empty)))
	m["fleet.ship_ms_p50"] = median(durMS("fleet.ship"))
	m["fleet.ships_per_job"] = ratio(float64(len(byName["fleet.ship"])), solved)
	m["fleet.complete_ms_p50"] = median(durMS("fleet.complete"))
	m["fleet.claimlog_ms_p50"] = median(durMS("fleet.claimlog"))
	t.mu.Lock()
	defer t.mu.Unlock()
	m["checkpoint.bytes_p50"] = median(t.ckptBytes)
	total := 0.0
	for _, b := range t.ckptBytes {
		total += b
	}
	m["fleet.ship_bytes_per_job"] = ratio(total, solved)
}

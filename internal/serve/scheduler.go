package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cimsa/internal/fairsched"
	"cimsa/internal/fleet"
	"cimsa/internal/problem"
	"cimsa/internal/rescache"
)

// SolveFunc runs one job's solve. Production calls task.Solve; tests
// and the fault-injection harness substitute stubs to script timing.
type SolveFunc func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error)

// FleetDispatcher hands a job to a fleet of remote workers and blocks
// until one of them (possibly after failovers) returns its result. The
// fleet coordinator implements it; the scheduler stays oblivious to
// leases, claims and checkpoint shipping — dispatch is just another
// solve path, so fairsched lanes, the result cache, SSE streams and
// gauge accounting all apply unchanged in coordinator mode.
type FleetDispatcher interface {
	Offer(ctx context.Context, job fleet.Job, run problem.Run) (*problem.Result, error)
}

// Config sizes the scheduler.
type Config struct {
	// MaxConcurrent is the number of solver slots — jobs solving at
	// once, each with its own worker pool (default 2). This mirrors the
	// chip's structure: a fixed set of annealer replicas time-shared by
	// all clients.
	MaxConcurrent int
	// QueueDepth bounds the jobs waiting for a slot (default 64).
	// Submissions beyond it are rejected immediately (backpressure)
	// rather than buffered without bound.
	QueueDepth int
	// ResultTTL is how long a finished job (and its result) stays
	// fetchable before the janitor removes it (default 15 minutes).
	ResultTTL time.Duration
	// SweepEvery is the janitor period (default 30s).
	SweepEvery time.Duration
	// ReplayBuffer bounds each job's SSE event replay buffer (default
	// 512); the oldest events are evicted first and reported to clients
	// via Status.EventsEvicted and a "truncated" stream frame.
	ReplayBuffer int

	// Journal, when non-nil, durably records submissions that carry a
	// request body (a non-nil Submit source) and retires them on
	// completion, so a crashed server's queued and running jobs are
	// re-enqueued on boot (Server.Recover). Appends are fsynced before
	// the submission is acknowledged.
	Journal *Journal
	// CheckpointDir, when set, gives every job a solver checkpoint
	// directory (CheckpointDir/<jobID>) so a recovered job resumes
	// mid-solve — bit-identical to never having stopped — instead of
	// starting over. A corrupt or mismatched checkpoint is discarded
	// with a diagnostic and the job solves fresh; it never fails the
	// job and is never silently annealed from. The directory is removed
	// when the job reaches a terminal state.
	CheckpointDir string
	// CheckpointEvery writes one snapshot per that many write-back
	// epochs (0 or 1: every epoch).
	CheckpointEvery int
	// Logf receives recovery and resume diagnostics (nil: discarded).
	Logf func(format string, args ...any)

	// Tenants configures the fair scheduler: per-tenant DRR weights and
	// admission quotas. The zero value gives every tenant an unlimited
	// weight-1 lane — behaviourally the old single FIFO. MaxQueuedTotal
	// and Now are overridden from QueueDepth and Config.Now so the
	// global depth and the clock have one source of truth.
	Tenants fairsched.Config
	// CacheEntries/CacheBytes enable the exact-match result cache when
	// either is > 0: identical (instance, design point, seed, solver
	// version) submissions are answered from memory — bit-identical to
	// a fresh solve — and concurrent identical submissions coalesce
	// onto one anneal. Zero values leave caching off.
	CacheEntries int
	CacheBytes   int64

	// Fleet, when non-nil, turns this scheduler into a coordinator:
	// jobs that carry a journalable request body are dispatched to
	// remote workers through the fleet (claim/lease/checkpoint-shipping
	// protocol, internal/fleet) instead of solving on the local slot.
	// Jobs without a source (direct API submissions of in-memory tasks)
	// still solve locally — they cannot be shipped.
	Fleet FleetDispatcher

	// Solve and Now are seams for tests and the fault-injection harness
	// (internal/faultinject); nil means cimsa.SolveContext and time.Now.
	Solve SolveFunc
	Now   func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 30 * time.Second
	}
	if c.ReplayBuffer <= 0 {
		c.ReplayBuffer = maxReplayEvents
	}
	if c.Solve == nil {
		c.Solve = func(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
			return task.Solve(ctx, run)
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Submission errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull means the global wait queue is at QueueDepth (HTTP
	// 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrTenantQueueFull means the submitting tenant's own max_queued
	// quota is exhausted (HTTP 429); other tenants are unaffected.
	ErrTenantQueueFull = fairsched.ErrTenantQueueFull
	// ErrRateLimited matches token-bucket rejections (HTTP 429 with a
	// Retry-After derived from the *fairsched.RateLimitError).
	ErrRateLimited = fairsched.ErrRateLimited
	// ErrShuttingDown means the scheduler no longer accepts jobs (503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrJournal matches a submission refused because the journal could
	// not record it — a server fault (503), never the client's.
	ErrJournal = errors.New("serve: journal append failed")
)

// journalError wraps a journal append failure so it matches ErrJournal
// while keeping the journal's own message.
type journalError struct{ err error }

func (e journalError) Error() string        { return e.err.Error() }
func (e journalError) Unwrap() error        { return e.err }
func (e journalError) Is(target error) bool { return target == ErrJournal }

// Scheduler multiplexes solve jobs onto a bounded pool of solver slots
// with a tenant-aware weighted-fair wait queue (internal/fairsched), an
// optional exact-match result cache (internal/rescache), a TTL'd result
// store and graceful shutdown.
type Scheduler struct {
	cfg     Config
	Metrics Metrics

	fq    *fairsched.Queue[*Job]
	cache *rescache.Cache // nil when caching is off

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	workers     sync.WaitGroup
	janitorStop chan struct{}
	idSeq       atomic.Int64
	// draining is set when Shutdown's deadline forces mass cancellation;
	// retire leaves those jobs' durable state for the next boot.
	draining atomic.Bool
}

// NewScheduler starts the worker slots and the TTL janitor.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	fqCfg := cfg.Tenants
	fqCfg.MaxQueuedTotal = cfg.QueueDepth
	fqCfg.Now = cfg.Now
	s := &Scheduler{
		cfg:         cfg,
		fq:          fairsched.New[*Job](fqCfg),
		jobs:        map[string]*Job{},
		janitorStop: make(chan struct{}),
	}
	if cfg.CacheEntries > 0 || cfg.CacheBytes > 0 {
		s.cache = rescache.New(cfg.CacheEntries, cfg.CacheBytes)
		s.Metrics.CacheStats = s.cache.Stats
	}
	s.workers.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go s.worker()
	}
	go s.janitor()
	return s
}

func (s *Scheduler) newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; the counter
		// alone still yields unique IDs if it somehow does.
		copy(b[:], "status")
	}
	return fmt.Sprintf("j%04d-%s", s.idSeq.Add(1), hex.EncodeToString(b[:]))
}

// Submit validates and enqueues one job under a tenant ("" means the
// default tenant): a SubmitBatch of one item. The tenant's admission
// quotas apply and the job is scheduled on its weighted lane. With a
// journal configured, a non-nil source (the original request body) is
// persisted and fsynced before the submission is acknowledged, so a
// later boot can rebuild and re-enqueue the job from it; a nil source
// skips journaling — the job can be neither recovered nor dispatched
// to a fleet. The task is owned by the scheduler afterwards and must
// not be mutated.
func (s *Scheduler) Submit(tenant string, task problem.Task, source json.RawMessage) (*Job, error) {
	r := s.admit(tenant, []BatchItem{{Task: task, Source: source}})[0]
	return r.Job, r.Err
}

// BatchItem is one submission of a SubmitBatch call: a task plus its
// journalable source body (nil source: the job is accepted but cannot
// be recovered or fleet-dispatched, exactly like Submit).
type BatchItem struct {
	Task   problem.Task
	Source json.RawMessage

	// id and submitted are set only by Resubmit: a recovered job keeps
	// the identity its journal record carries.
	id        string
	submitted time.Time
}

// BatchResult pairs a batch item with its outcome: exactly one of Job
// and Err is set.
type BatchResult struct {
	Job *Job
	Err error
}

// SubmitBatch admits many jobs under one tenant in a single critical
// section with a single journal fsync — the amortization that makes the
// many-small-instances regime cheap: one HTTP round trip, one lock
// acquisition, one durability barrier for the whole batch. Admission is
// per-item (each item still pays the tenant's quotas and rate tokens, so
// a batch cannot smuggle jobs past fairsched), and per-item failures
// reject only that item. If the collective journal append fails, every
// item journaled by it is rejected — none was acknowledged durable.
func (s *Scheduler) SubmitBatch(tenant string, items []BatchItem) []BatchResult {
	return s.admit(tenant, items)
}

// Resubmit re-enqueues a recovered job under its original ID, tenant
// and submission time. The journal already holds its record, so nothing
// is re-journaled — and the tenant's admission quotas are bypassed: the
// job was already accepted once, so a rate limit or a queued cap must
// not drop it at boot (records from before tenancy carry no tenant and
// recover under the default lane). The source is the journaled request
// body, kept on the job so a coordinator can re-dispatch the recovered
// job to the fleet.
func (s *Scheduler) Resubmit(id, tenant string, submitted time.Time, task problem.Task, source json.RawMessage) (*Job, error) {
	if id == "" {
		return nil, errors.New("serve: recovered job has no ID")
	}
	r := s.admit(tenant, []BatchItem{{Task: task, Source: source, id: id, submitted: submitted}})[0]
	return r.Job, r.Err
}

// admit is the one admission path. Items are validated outside the
// lock; then, in one critical section under s.mu, each new item passes
// the tenant's quotas (fq.Admit), gets its ID and stages its journal
// record. One SubmittedBatch call makes the staged records durable with
// one fsync, and only then do the gauges rise and the jobs reach the
// fair queue — workers don't take s.mu, so a gauge raised after Push
// could be lowered by an eager worker first and go negative. A
// recovered item (one carrying its journaled ID) skips the quotas and
// the journal and is refused if its ID is already live. Only admit
// pushes new jobs, and only under s.mu, so Admit's verdict decides the
// Push without racing other submitters, and the journal order matches
// the queue order.
func (s *Scheduler) admit(tenant string, items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	for i, it := range items {
		if it.Task == nil {
			out[i].Err = errors.New("serve: batch item has no task")
		} else {
			out[i].Err = it.Task.Validate()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = ErrShuttingDown
			}
		}
		return out
	}
	lane := s.fq.Canonical(tenant)
	now := s.cfg.Now()
	var jobs []*Job // admitted jobs, in batch order
	var idx []int   // jobs[k] answers items[idx[k]]
	var recs []SubmitRecord
	for i, it := range items {
		if out[i].Err != nil {
			continue
		}
		recovered := it.id != ""
		id, submitted := it.id, it.submitted
		if recovered {
			if _, dup := s.jobs[id]; dup {
				out[i].Err = fmt.Errorf("serve: job %s already exists", id)
				continue
			}
		} else {
			if err := s.fq.Admit(lane); err != nil {
				if errors.Is(err, fairsched.ErrClosed) {
					err = ErrShuttingDown
				} else {
					s.Metrics.reject(lane, err)
					if errors.Is(err, fairsched.ErrQueueFull) {
						err = ErrQueueFull
					}
				}
				out[i].Err = err
				continue
			}
			id, submitted = s.newID(), now
		}
		ctx, cancel := context.WithCancel(context.Background())
		job := &Job{
			ID:          id,
			Tenant:      lane,
			task:        it.Task,
			ctx:         ctx,
			cancel:      cancel,
			done:        make(chan struct{}),
			state:       StateQueued,
			submitted:   submitted,
			replayLimit: s.cfg.ReplayBuffer,
			source:      it.Source,
			// A recovered job's record is already in the journal.
			journaled: s.cfg.Journal != nil && (recovered || it.Source != nil),
		}
		if job.journaled && !recovered {
			recs = append(recs, SubmitRecord{ID: id, Tenant: lane, Problem: it.Task.Problem(), Submitted: submitted, Request: it.Source})
		}
		jobs = append(jobs, job)
		idx = append(idx, i)
	}

	// Durability before acknowledgement, batch-wide: a failed append
	// rejects every admitted item, because none of them is durably
	// recorded.
	if len(recs) > 0 {
		if err := s.cfg.Journal.SubmittedBatch(recs); err != nil {
			for k, job := range jobs {
				job.cancel()
				if items[idx[k]].id == "" {
					s.fq.Unadmit(lane) // the reserved slot will never be pushed
				}
				out[idx[k]].Err = journalError{err}
			}
			return out
		}
	}
	for k, job := range jobs {
		s.Metrics.move(job.task.Problem(), lane, "", StateQueued)
		s.fq.Push(lane, job) // cannot fail: fq closes under s.mu with closed=true
		s.jobs[job.ID] = job
		out[idx[k]].Job = job
	}
	return out
}

// Get returns a job by ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List snapshots every tracked job, oldest submission first.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Submitted.Equal(out[k].Submitted) {
			return out[i].Submitted.Before(out[k].Submitted)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel aborts a job. A queued job is finalized immediately (the
// worker that later pops it skips it); a running job's solve context is
// cancelled and the slot's worker finalizes it as soon as the solver
// observes the cancellation (between chromatic phases, so promptly).
// Cancelling a finished job is a no-op. Returns false if the ID is
// unknown.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	job.cancel()
	if s.settle(job, StateQueued, nil, context.Canceled) {
		// Pull the corpse out of its lane so it stops occupying the
		// tenant's queued quota and cannot clog a running-capped lane.
		// (A job already popped — running, or coalesced on an in-flight
		// identical solve — is simply not found here; that's fine.)
		s.fq.Remove(job.Tenant, func(j *Job) bool { return j == job })
	}
	return true
}

// settle is the only code that makes a job terminal. If the job is
// still in state from (queued or running) it records the outcome — done
// with res when err is nil, canceled on a context error, failed on any
// other — and the finish time, moves the job's counters, publishes the
// terminal event, retires its durable footprint and closes done. It
// reports false, doing nothing, when the job already left from: a
// concurrent path (a cancel racing a cache hit) settled it first.
//
// A job done while still queued was served from the result cache:
// queued → done without ever running, consuming no solver randomness,
// and its queue wait is observed here (submit → completion).
func (s *Scheduler) settle(job *Job, from State, res *problem.Result, err error) bool {
	to := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		to = StateCanceled
	default:
		to = StateFailed
	}
	cached := to == StateDone && from == StateQueued
	now := s.cfg.Now()
	job.mu.Lock()
	if job.state != from {
		job.mu.Unlock()
		return false
	}
	job.state, job.cached = to, cached
	if err == nil {
		job.result = res
	} else {
		job.err = err
	}
	job.finished = now
	job.expires = now.Add(s.cfg.ResultTTL)
	job.mu.Unlock()
	s.Metrics.move(job.task.Problem(), job.Tenant, from, to)
	switch to {
	case StateDone:
		if cached {
			s.Metrics.observeQueueWait(job.Tenant, now.Sub(job.submitted))
		}
		job.publish(string(to), nil, res.Objective, "")
	case StateFailed:
		job.publish(string(to), nil, 0, err.Error())
	default:
		job.publish(string(to), nil, 0, "")
	}
	// A cancelled job is terminal from the client's point of view (the
	// cancel was asked for), so its journal record and checkpoints are
	// retired like any other outcome; only a killed process leaves them
	// behind for recovery. Retire before signalling done: an observer of
	// Done() may rely on the durable footprint being gone.
	s.retire(job)
	close(job.done)
	return true
}

// retire cleans up a terminal job's durable footprint.
//
// Exception: a job cancelled by the shutdown drain deadline was not
// cancelled by anyone who wanted it gone — its record and checkpoint
// are left in place so the next boot resumes it from the snapshot the
// solver flushed on the way out.
func (s *Scheduler) retire(job *Job) {
	if s.draining.Load() {
		job.mu.Lock()
		canceled := job.state == StateCanceled
		job.mu.Unlock()
		if canceled {
			s.cfg.Logf("job %s: interrupted by shutdown; preserved for recovery", job.ID)
			return
		}
	}
	s.forget(job.ID, job.journaled)
}

// forget removes a job's durable footprint: its journal record (so the
// next boot will not recover it), when it has one, and its checkpoint
// directory. Failures are logged, not fatal — the job itself is over.
func (s *Scheduler) forget(id string, journaled bool) {
	if journaled && s.cfg.Journal != nil {
		if err := s.cfg.Journal.Finished(id); err != nil {
			s.cfg.Logf("job %s: journal retire: %v", id, err)
		}
	}
	if s.cfg.CheckpointDir != "" {
		if err := os.RemoveAll(s.jobCheckpointDir(id)); err != nil {
			s.cfg.Logf("job %s: checkpoint cleanup: %v", id, err)
		}
	}
}

func (s *Scheduler) jobCheckpointDir(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id)
}

func (s *Scheduler) worker() {
	defer s.workers.Done()
	for {
		job, ok := s.fq.Pop()
		if !ok {
			return
		}
		s.dispatch(job)
	}
}

// dispatch routes one popped job: straight to a solve when caching is
// off, otherwise through the result cache. Every Pop is paired with
// exactly one Release — immediately for a coalesced waiter (it occupies
// no slot while it rides the leader's solve), after the job settles
// otherwise.
func (s *Scheduler) dispatch(job *Job) {
	defer s.fq.Release(job.Tenant)
	job.mu.Lock()
	terminal := job.state.Terminal()
	job.mu.Unlock()
	if terminal {
		return // canceled while queued; Cancel already settled it
	}
	if s.cache == nil {
		s.run(job, "")
		return
	}
	key := cacheKey(job.task)
	res, role := s.cache.Acquire(key, func(res *problem.Result, ok bool) {
		s.coalesced(job, res, ok)
	})
	switch role {
	case rescache.RoleHit:
		s.Metrics.CacheHits.Add(1)
		s.settle(job, StateQueued, res, nil)
	case rescache.RoleWaiter:
		// An identical solve is in flight: ride it instead of burning a
		// slot on a duplicate anneal. The job stays StateQueued (so
		// Cancel keeps working) and the slot frees for other work; the
		// callback settles it — or requeues it if the leader aborts.
		s.Metrics.CacheCoalesced.Add(1)
	default:
		s.Metrics.CacheMisses.Add(1)
		s.run(job, key)
	}
}

// cacheKey identifies a solve's output exactly: the canonical instance
// content hash, the design-point hash (every result-affecting solve
// parameter plus the backend's solver-version tag) and the instance
// label (part of the served Result, so two differently-named identical
// instances never share bytes).
func cacheKey(task problem.Task) string {
	return task.InstanceHash() + "|" + task.DesignHash() + "|" + task.Label()
}

// coalesced is the waiter callback for a job riding an identical
// in-flight solve; it runs on the leader's worker goroutine. A
// successful leader settles the waiter from the shared result; an
// aborted leader (failed or canceled) requeues the waiter for a fresh
// solve of its own — its submission was accepted, so it must not
// inherit the leader's fate.
func (s *Scheduler) coalesced(job *Job, res *problem.Result, ok bool) {
	if ok {
		s.settle(job, StateQueued, res, nil)
		return
	}
	job.mu.Lock()
	terminal := job.state.Terminal()
	job.mu.Unlock()
	if terminal {
		return // canceled while coalesced; Cancel settled it
	}
	if !s.fq.Push(job.Tenant, job) {
		// Shutting down: nothing will pop a requeue, finalize instead.
		s.settle(job, StateQueued, nil, context.Canceled)
	}
}

// run executes one job on the calling worker's slot. A non-empty key
// means this job leads a cache flight and must settle it: Complete on
// success, Abort otherwise (so coalesced waiters are always notified).
// The flight settles before the job turns terminal: waiters coalesced
// on this solve finalize on this goroutine, so by the time this job
// reports done its riders are done too, and a client that sees it done
// finds the result cached.
func (s *Scheduler) run(job *Job, key string) {
	job.mu.Lock()
	if job.state != StateQueued {
		job.mu.Unlock()
		if key != "" {
			s.cache.Abort(key)
		}
		return
	}
	job.state = StateRunning
	job.started = s.cfg.Now()
	job.mu.Unlock()
	s.Metrics.move(job.task.Problem(), job.Tenant, StateQueued, StateRunning)
	s.Metrics.observeQueueWait(job.Tenant, job.started.Sub(job.submitted))

	res, err := s.solve(job)
	if key != "" {
		if err == nil {
			s.cache.Complete(key, res)
		} else {
			s.cache.Abort(key)
		}
	}
	s.settle(job, StateRunning, res, err)
}

// solve runs a job's solve — on this slot, or in coordinator mode on a
// fleet worker — under problem.SolveGuarded: a rejected checkpoint is
// discarded and the job solves fresh once, and a solver panic becomes
// an error that fails the job instead of the process.
func (s *Scheduler) solve(job *Job) (*problem.Result, error) {
	run := problem.Run{
		Progress: func(ev problem.Progress) {
			pe := ev
			job.publish("progress", &pe, 0, "")
		},
	}
	if s.cfg.CheckpointDir != "" {
		run.CheckpointDir = s.jobCheckpointDir(job.ID)
		run.CheckpointEvery = s.cfg.CheckpointEvery
		run.OnCheckpointWrite = func(string) { s.Metrics.CheckpointsWritten.Add(1) }
		run.OnCheckpointResume = func(path string) {
			s.Metrics.Resumes.Add(1)
			s.cfg.Logf("job %s: resuming from checkpoint %s", job.ID, path)
		}
	}
	solve := func(ctx context.Context, run problem.Run) (*problem.Result, error) {
		return s.cfg.Solve(ctx, job.task, run)
	}
	if s.cfg.Fleet != nil && len(job.source) > 0 {
		// Coordinator mode: offer the job to the fleet and wait for a
		// worker's result. The Run hooks flow through unchanged — the
		// coordinator invokes Progress for shipped progress events and
		// OnCheckpointWrite when a worker ships a snapshot into this
		// job's checkpoint directory — so SSE streams and checkpoint
		// metrics behave exactly as for a local solve. Worker-side
		// checkpoint rejection is handled on the worker (discard, solve
		// fresh), so Offer never returns ErrInvalid/ErrMismatch.
		fj := fleet.Job{
			ID:              job.ID,
			Problem:         job.task.Problem(),
			Tenant:          job.Tenant,
			Source:          job.source,
			CheckpointDir:   run.CheckpointDir,
			CheckpointEvery: s.cfg.CheckpointEvery,
		}
		solve = func(ctx context.Context, run problem.Run) (*problem.Result, error) {
			return s.cfg.Fleet.Offer(ctx, fj, run)
		}
	}
	logf := func(format string, args ...any) {
		s.cfg.Logf("job %s: %s", job.ID, fmt.Sprintf(format, args...))
	}
	start := s.cfg.Now()
	res, err := problem.SolveGuarded(job.ctx, run, solve, logf, func() { s.Metrics.ResumeFailures.Add(1) })
	if err == nil {
		s.Metrics.observeSolve(s.cfg.Now().Sub(start), res.Iterations)
	}
	return res, err
}

// janitor periodically expires finished jobs past their TTL.
func (s *Scheduler) janitor() {
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sweep()
		case <-s.janitorStop:
			return
		}
	}
}

// Sweep runs one janitor pass immediately, removing finished jobs whose
// TTL has lapsed, and returns how many were removed. The periodic
// janitor calls the same logic; the fault-injection harness calls Sweep
// directly to pair scripted clock jumps with deterministic sweeps.
func (s *Scheduler) Sweep() int { return s.sweep() }

// sweep removes finished jobs whose TTL has lapsed, returning how many
// were evicted. (Exported behaviour is via the janitor and Sweep; tests
// call it directly.)
func (s *Scheduler) sweep() int {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for id, job := range s.jobs {
		job.mu.Lock()
		expired := job.state.Terminal() && now.After(job.expires)
		job.mu.Unlock()
		if expired {
			delete(s.jobs, id)
			removed++
		}
	}
	return removed
}

// Shutdown stops accepting jobs and drains: queued jobs still run, and
// in-flight solves finish, as long as ctx allows. When ctx expires
// every outstanding job is cancelled (the solvers abort between
// chromatic phases) and Shutdown returns ctx.Err() once the workers
// exit. Safe to call once.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.workers.Wait()
		return nil
	}
	s.closed = true
	s.fq.Close()
	close(s.janitorStop)
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.draining.Store(true)
		s.mu.Lock()
		ids := make([]string, 0, len(s.jobs))
		for id := range s.jobs {
			ids = append(ids, id)
		}
		s.mu.Unlock()
		for _, id := range ids {
			s.Cancel(id)
		}
		<-drained
		return ctx.Err()
	}
}

package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cimsa"
	"cimsa/internal/problem"
	"cimsa/internal/problem/tspprob"
)

// fakeClock is an injectable time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// stubSolver scripts the solve: it signals when a job starts, then
// blocks until released or its context is cancelled. It also counts
// which instances actually ran.
type stubSolver struct {
	started chan string
	release chan struct{}
	once    sync.Once

	mu   sync.Mutex
	runs []string
}

// releaseAll unblocks every current and future stub solve; safe to call
// more than once.
func (st *stubSolver) releaseAll() { st.once.Do(func() { close(st.release) }) }

func newStubSolver() *stubSolver {
	return &stubSolver{started: make(chan string, 16), release: make(chan struct{})}
}

func (st *stubSolver) solve(ctx context.Context, task problem.Task, run problem.Run) (*problem.Result, error) {
	st.mu.Lock()
	st.runs = append(st.runs, task.Label())
	st.mu.Unlock()
	st.started <- task.Label()
	select {
	case <-st.release:
		if run.Progress != nil {
			run.Progress(problem.Progress{Levels: 1, Iters: 400, Iter: 400, Clusters: 3})
		}
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size(), Objective: 42}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (st *stubSolver) ran(name string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, r := range st.runs {
		if r == name {
			return true
		}
	}
	return false
}

func testTask(t *testing.T, name string) problem.Task {
	t.Helper()
	return tspprob.New(cimsa.GenerateInstance(name, 10, 1), cimsa.Options{})
}

func waitStarted(t *testing.T, st *stubSolver, want string) {
	t.Helper()
	select {
	case got := <-st.started:
		if got != want {
			t.Fatalf("job %q started, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("job %q never started", want)
	}
}

func waitDone(t *testing.T, job *Job) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never finished (state %s)", job.ID, job.Status().State)
	}
}

func newTestScheduler(t *testing.T, st *stubSolver, clk *fakeClock, maxConc, depth int) *Scheduler {
	t.Helper()
	cfg := Config{
		MaxConcurrent: maxConc,
		QueueDepth:    depth,
		ResultTTL:     time.Minute,
		Solve:         st.solve,
	}
	if clk != nil {
		cfg.Now = clk.Now
	}
	s := NewScheduler(cfg)
	t.Cleanup(func() {
		st.releaseAll()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func TestQueueFullBackpressure(t *testing.T) {
	st := newStubSolver()
	s := newTestScheduler(t, st, nil, 1, 1)

	a, err := s.Submit("", testTask(t, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, st, "a") // a occupies the single slot
	b, err := s.Submit("", testTask(t, "b"), nil)
	if err != nil {
		t.Fatal(err) // b fills the single queue position
	}
	if _, err := s.Submit("", testTask(t, "c"), nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: want ErrQueueFull, got %v", err)
	}
	if got := s.Metrics.Rejected.Load(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	if got := s.Metrics.Queued.Load(); got != 1 {
		t.Fatalf("queued gauge %d, want 1", got)
	}
	st.releaseAll()
	waitDone(t, a)
	waitStarted(t, st, "b")
	waitDone(t, b)
	if a.Status().State != StateDone || b.Status().State != StateDone {
		t.Fatalf("states %s/%s, want done/done", a.Status().State, b.Status().State)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	st := newStubSolver()
	s := newTestScheduler(t, st, nil, 1, 4)

	a, err := s.Submit("", testTask(t, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, st, "a")
	b, err := s.Submit("", testTask(t, "b"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(b.ID) {
		t.Fatal("cancel of queued job reported unknown ID")
	}
	// A queued cancellation is final immediately — no waiting for a slot.
	select {
	case <-b.Done():
	default:
		t.Fatal("cancelled queued job not finalized immediately")
	}
	if got := b.Status().State; got != StateCanceled {
		t.Fatalf("state %s, want canceled", got)
	}
	c, err := s.Submit("", testTask(t, "c"), nil)
	if err != nil {
		t.Fatal(err)
	}
	st.releaseAll()
	waitDone(t, a)
	// The worker must skip b and go straight to c.
	waitStarted(t, st, "c")
	waitDone(t, c)
	if st.ran("b") {
		t.Fatal("cancelled queued job was still solved")
	}
	if got := s.Metrics.Canceled.Load(); got != 1 {
		t.Fatalf("canceled counter %d, want 1", got)
	}
}

func TestCancelWhileRunningFreesSlot(t *testing.T) {
	st := newStubSolver()
	s := newTestScheduler(t, st, nil, 1, 4)

	a, err := s.Submit("", testTask(t, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, st, "a")
	b, err := s.Submit("", testTask(t, "b"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelAt := time.Now()
	if !s.Cancel(a.ID) {
		t.Fatal("cancel of running job reported unknown ID")
	}
	waitDone(t, a)
	if elapsed := time.Since(cancelAt); elapsed > 2*time.Second {
		t.Fatalf("running job took %v to observe cancellation", elapsed)
	}
	if got := a.Status().State; got != StateCanceled {
		t.Fatalf("state %s, want canceled", got)
	}
	// The freed slot must pick up the queued job.
	waitStarted(t, st, "b")
	st.releaseAll()
	waitDone(t, b)
	if got := b.Status().State; got != StateDone {
		t.Fatalf("follow-up job state %s, want done", got)
	}
}

func TestResultTTLExpiry(t *testing.T) {
	st := newStubSolver()
	clk := newFakeClock()
	s := newTestScheduler(t, st, clk, 1, 4)

	job, err := s.Submit("", testTask(t, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, st, "a")
	st.releaseAll()
	waitDone(t, job)

	if removed := s.sweep(); removed != 0 {
		t.Fatalf("sweep before TTL removed %d jobs", removed)
	}
	if _, ok := s.Get(job.ID); !ok {
		t.Fatal("job vanished before its TTL")
	}
	clk.Advance(2 * time.Minute)
	if removed := s.sweep(); removed != 1 {
		t.Fatalf("sweep after TTL removed %d jobs, want 1", removed)
	}
	if _, ok := s.Get(job.ID); ok {
		t.Fatal("expired job still fetchable")
	}
}

func TestShutdownDrains(t *testing.T) {
	st := newStubSolver()
	s := newTestScheduler(t, st, nil, 1, 4)

	a, err := s.Submit("", testTask(t, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, st, "a")
	b, err := s.Submit("", testTask(t, "b"), nil)
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Shutdown must refuse new work while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Submit("", testTask(t, "late"), nil)
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions still accepted during shutdown (err %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("shutdown returned %v before draining", err)
	default:
	}
	st.releaseAll()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drained shutdown returned %v", err)
	}
	waitDone(t, a)
	waitDone(t, b)
	if a.Status().State != StateDone || b.Status().State != StateDone {
		t.Fatalf("drained jobs ended %s/%s, want done/done", a.Status().State, b.Status().State)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	st := newStubSolver()
	s := newTestScheduler(t, st, nil, 1, 4)

	a, err := s.Submit("", testTask(t, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, st, "a")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from impatient shutdown, got %v", err)
	}
	waitDone(t, a)
	if got := a.Status().State; got != StateCanceled {
		t.Fatalf("in-flight job ended %s, want canceled", got)
	}
}

func TestSubscribeReplayAfterCompletion(t *testing.T) {
	st := newStubSolver()
	s := newTestScheduler(t, st, nil, 1, 4)

	job, err := s.Submit("", testTask(t, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, st, "a")
	st.releaseAll()
	waitDone(t, job)

	replay, _, ch, unsub := job.Subscribe()
	defer unsub()
	var progress, done int
	for _, ev := range replay {
		switch ev.Type {
		case "progress":
			progress++
		case "done":
			done++
			if ev.Length != 42 {
				t.Fatalf("done event length %v, want 42", ev.Length)
			}
		}
	}
	if progress == 0 || done != 1 {
		t.Fatalf("replay has %d progress / %d done events", progress, done)
	}
	if _, open := <-ch; open {
		t.Fatal("late subscriber's live channel not closed")
	}
}

func TestSubmitRejectsInvalidOptions(t *testing.T) {
	st := newStubSolver()
	s := newTestScheduler(t, st, nil, 1, 4)
	if _, err := s.Submit("", tspprob.New(cimsa.GenerateInstance("a", 10, 1), cimsa.Options{PMax: 99}), nil); err == nil ||
		!strings.Contains(err.Error(), "PMax") {
		t.Fatalf("invalid options: got %v", err)
	}
	if got := s.Metrics.Submitted.Load(); got != 0 {
		t.Fatalf("invalid submission counted: %d", got)
	}
}

// TestSubmitBatchRespectsQueueCap is the regression for batch admission
// seeing stale queue lengths: all of a batch's Admit calls used to run
// before any of its Push calls, so a batch of N was fully admitted even
// with one queue slot left. Reservations close that: the overflow items
// are rejected inside the batch.
func TestSubmitBatchRespectsQueueCap(t *testing.T) {
	st := newStubSolver()
	s := newTestScheduler(t, st, nil, 1, 2)

	a, err := s.Submit("", testTask(t, "a"), nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, st, "a") // a occupies the slot; the queue has 2 free positions

	out := s.SubmitBatch("", []BatchItem{
		{Task: testTask(t, "b")},
		{Task: testTask(t, "c")},
		{Task: testTask(t, "d")},
	})
	var admitted, full int
	for _, r := range out {
		switch {
		case r.Err == nil && r.Job != nil:
			admitted++
		case errors.Is(r.Err, ErrQueueFull):
			full++
		default:
			t.Fatalf("unexpected batch outcome: job=%v err=%v", r.Job, r.Err)
		}
	}
	if admitted != 2 || full != 1 {
		t.Fatalf("batch admitted %d / queue-full %d, want 2 / 1", admitted, full)
	}
	st.releaseAll()
	waitDone(t, a)
	for _, r := range out {
		if r.Job != nil {
			waitDone(t, r.Job)
		}
	}
}

package serve

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cimsa/internal/fairsched"
	"cimsa/internal/problem"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// scriptStep is what the script solver does once the test lets a solve
// go on: move the clock forward, then return err or a fixed result.
type scriptStep struct {
	advance time.Duration
	err     error
}

// scriptSolver blocks every solve until the test sends its step, keyed
// by problem type (each type solves at most once in the script), and
// moves the injected clock only from inside the solve. Every clock read
// the scheduler makes therefore lands at a time the test chose.
type scriptSolver struct {
	clk     *fakeClock
	entered chan string
	steps   map[string]chan scriptStep
}

func (sc *scriptSolver) solve(ctx context.Context, task problem.Task, _ problem.Run) (*problem.Result, error) {
	sc.entered <- task.Problem()
	select {
	case step := <-sc.steps[task.Problem()]:
		sc.clk.Advance(step.advance)
		if step.err != nil {
			return nil, step.err
		}
		return &problem.Result{Problem: task.Problem(), Instance: task.Label(), N: task.Size(), Objective: 123.5, Iterations: 400}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// The /metrics exposition after a fixed scripted history — four problem
// types, three tenants, a quota rejection, a cancel while queued, a
// cache hit and a failed solve — must match the committed golden byte
// for byte. The script runs over HTTP only, so the same test pins the
// exposition across any rewrite of the scheduler's internals. Refresh
// with: go test ./internal/serve -run TestMetricsExpositionGolden -update
func TestMetricsExpositionGolden(t *testing.T) {
	clk := newFakeClock()
	sc := &scriptSolver{clk: clk, entered: make(chan string, 8), steps: map[string]chan scriptStep{}}
	for _, p := range []string{"tsp", "maxcut", "ising", "qubo"} {
		sc.steps[p] = make(chan scriptStep, 1)
	}
	_, base := newTestServer(t, Config{
		MaxConcurrent: 1, QueueDepth: 8, CacheEntries: 8,
		Now: clk.Now, Solve: sc.solve,
		Tenants: fairsched.Config{Tenants: map[string]fairsched.Policy{"beta": {MaxQueued: 1}}},
	})
	submit := func(tenant, body string, want int) Status {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			resp.Body.Close()
			t.Fatalf("submit %s returned %d, want %d", body, resp.StatusCode, want)
		}
		return decodeJSON[Status](t, resp)
	}
	entered := func(want string) {
		t.Helper()
		select {
		case got := <-sc.entered:
			if got != want {
				t.Fatalf("%s solve started, want %s", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s solve never started", want)
		}
	}
	const (
		tspJob    = `{"tsp":{"generate":{"name":"a","n":20,"seed":1},"options":{"skip_hardware":true}}}`
		maxcutJob = `{"maxcut":{"generate":{"n":16,"density":0.3,"seed":2},"sweeps":10,"seed":1}}`
		isingJob  = `{"ising":{"generate":{"n":8,"density":0.5,"seed":3},"sweeps":10,"seed":1}}`
		quboJob   = `{"qubo":{"generate":{"n":8,"density":0.5,"seed":4},"sweeps":10,"seed":1}}`
	)

	a := submit("acme", tspJob, http.StatusAccepted)
	entered("tsp")
	b := submit("beta", maxcutJob, http.StatusAccepted)
	c := submit("acme", isingJob, http.StatusAccepted)
	submit("beta", strings.Replace(maxcutJob, `"seed":2`, `"seed":5`, 1), http.StatusTooManyRequests)
	resp, err := http.Post(base+"/v1/jobs/"+c.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pollState(t, base, c.ID, StateCanceled, time.Minute)

	sc.steps["tsp"] <- scriptStep{advance: 3 * time.Second}
	pollState(t, base, a.ID, StateDone, time.Minute)
	entered("maxcut")
	sc.steps["maxcut"] <- scriptStep{advance: 20 * time.Millisecond}
	pollState(t, base, b.ID, StateDone, time.Minute)

	hit := submit("", tspJob, http.StatusAccepted)
	if st := pollState(t, base, hit.ID, StateDone, time.Minute); !st.Cached {
		t.Fatal("identical tsp submit was not served from the cache")
	}
	e := submit("", quboJob, http.StatusAccepted)
	entered("qubo")
	sc.steps["qubo"] <- scriptStep{err: errors.New("scripted failure")}
	pollState(t, base, e.ID, StateFailed, time.Minute)

	got := readBody(t, mustGet(t, base+"/metrics"))
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

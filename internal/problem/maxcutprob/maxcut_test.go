package maxcutprob

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cimsa/internal/maxcut"
	"cimsa/internal/problem"
)

func newTask(payload string, lim problem.Limits) (*Task, error) {
	task, err := Type{}.NewTask(json.RawMessage(payload), lim)
	if err != nil {
		return nil, err
	}
	return task.(*Task), nil
}

func mustTask(t *testing.T, payload string) *Task {
	t.Helper()
	task, err := newTask(payload, problem.Limits{})
	if err != nil {
		t.Fatalf("%s: %v", payload, err)
	}
	return task
}

// Every malformed or over-limit payload is refused at parse time with
// an error naming the fault; the size caps apply to declared sizes,
// before any graph is materialized.
func TestNewTaskRejections(t *testing.T) {
	lim := problem.Limits{MaxVertices: 50, MaxEdges: 100}
	for _, tc := range []struct{ payload, want string }{
		{`{"n":3,"edges":[],"sweeps":1,"typo":0}`, "unknown field"},
		{`{"n":3,"edges":[{"u":0,"v":1,"weight":2}]}`, "unknown field"},
		{`{"n":"three"}`, "maxcut payload"},
		{`{}`, "specify a graph"},
		{`{"n":3,"generate":{"n":3,"density":0.5}}`, "not both"},
		{`{"generate":{"n":1,"density":0.5}}`, "generate.n must be >= 2"},
		{`{"generate":{"n":51,"density":0.5}}`, "exceeds the server vertex limit 50"},
		{`{"generate":{"n":10,"density":2}}`, "density must be in [0,1]"},
		{`{"generate":{"n":50,"density":0.5}}`, "at most 100"},
		{`{"n":51,"edges":[{"u":0,"v":1}]}`, "at most 50"},
		{fmt.Sprintf(`{"n":3,"edges":[%s{"u":0,"v":1}]}`, strings.Repeat(`{"u":0,"v":1},`, 100)), "at most 100"},
		{`{"n":1,"edges":[]}`, "needs >= 2 vertices"},
		{`{"n":3,"edges":[{"u":0,"v":3}]}`, "edge (0,3) out of range"},
		{`{"n":3,"edges":[{"u":2,"v":2}]}`, "self-loop at 2"},
		{`{"n":3,"edges":[{"u":0,"v":1,"w":-1}]}`, "negative weight"},
		{`{"n":3,"edges":[{"u":0,"v":1,"w":1e308},{"u":1,"v":2,"w":1e308}]}`, "finite sum"},
	} {
		_, err := newTask(tc.payload, lim)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.payload, err, tc.want)
		}
	}
}

// Large but finite weights are accepted, and the cut stays encodable.
func TestLargeFiniteWeightsAccepted(t *testing.T) {
	task := mustTask(t, `{"n":3,"edges":[{"u":0,"v":1,"w":0.8e308},{"u":1,"v":2,"w":0.8e308}],"sweeps":20}`)
	res, err := task.Solve(context.Background(), problem.Run{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("result not encodable: %v", err)
	}
}

// A generate recipe and the explicit graph it expands to are one
// instance: their InstanceHash matches. DesignHash folds only sweeps,
// seed and the solver version. The pinned values guard the result
// cache across releases: changing either hash orphans every cached
// result.
func TestHashStability(t *testing.T) {
	gen := mustTask(t, `{"generate":{"n":12,"density":0.4,"seed":3},"sweeps":50,"seed":7}`)
	edges := make([]EdgeSpec, len(gen.Graph().Edges))
	for i, e := range gen.Graph().Edges {
		w := e.W
		edges[i] = EdgeSpec{U: e.U, V: e.V, W: &w}
	}
	payload, err := json.Marshal(Spec{Name: "explicit", N: 12, Edges: edges, Sweeps: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	exp := mustTask(t, string(payload))
	if gen.InstanceHash() != exp.InstanceHash() || gen.DesignHash() != exp.DesignHash() {
		t.Fatal("a generate recipe and its explicit expansion hash differently")
	}
	unit := mustTask(t, `{"n":3,"edges":[{"u":0,"v":1},{"u":1,"v":2,"w":2.5}],"sweeps":50,"seed":7}`)
	const (
		wantInstance = "maxcut:8da5bb3e56ca266998605a93c0c2353cd62b13c8db4ee794b0985571883b5b38"
		wantDesign   = "maxcut:2011443610e8049025c036becd1f4b35420e454b3b78478ff78062fbd540fb0d"
	)
	if got := unit.InstanceHash(); got != wantInstance {
		t.Errorf("InstanceHash = %s, pinned %s", got, wantInstance)
	}
	if got := unit.DesignHash(); got != wantDesign {
		t.Errorf("DesignHash = %s, pinned %s", got, wantDesign)
	}
	for _, p := range []string{
		`{"n":3,"edges":[{"u":0,"v":1},{"u":1,"v":2,"w":2.5}],"sweeps":51,"seed":7}`,
		`{"n":3,"edges":[{"u":0,"v":1},{"u":1,"v":2,"w":2.5}],"sweeps":50,"seed":8}`,
	} {
		d := mustTask(t, p)
		if d.DesignHash() == unit.DesignHash() || d.InstanceHash() != unit.InstanceHash() {
			t.Errorf("%s: a run parameter change must move DesignHash only", p)
		}
	}
	if w := mustTask(t, `{"n":3,"edges":[{"u":0,"v":1},{"u":1,"v":2,"w":2.25}],"sweeps":50,"seed":7}`); w.InstanceHash() == unit.InstanceHash() {
		t.Error("changed weight kept the InstanceHash")
	}
}

// The adapter solves bit-identically to calling maxcut.Solve directly
// with the same sweeps and seed.
func TestSolveMatchesLibrary(t *testing.T) {
	task := mustTask(t, `{"generate":{"n":24,"density":0.3,"seed":5},"sweeps":80,"seed":2}`)
	res, err := task.Solve(context.Background(), problem.Run{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := maxcut.Solve(maxcut.Random(24, 0.3, 5), 80, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != want.Cut || res.Quality != want.Ratio || res.Iterations != 80*24 {
		t.Fatalf("adapter cut %g ratio %g iters %d, library cut %g ratio %g", res.Objective, res.Quality, res.Iterations, want.Cut, want.Ratio)
	}
	got, err := json.Marshal(res.Detail)
	if err != nil {
		t.Fatal(err)
	}
	if exp, _ := json.Marshal(want); string(got) != string(exp) {
		t.Fatalf("adapter detail %s, library %s", got, exp)
	}
}

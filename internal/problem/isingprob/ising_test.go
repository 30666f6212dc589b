package isingprob

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cimsa/internal/problem"
	"cimsa/internal/rng"
)

func newTask(t *testing.T, typ problem.Type, payload string, lim problem.Limits) (*Task, error) {
	t.Helper()
	task, err := typ.NewTask(json.RawMessage(payload), lim)
	if err != nil {
		return nil, err
	}
	return task.(*Task), nil
}

func mustTask(t *testing.T, typ problem.Type, payload string) *Task {
	t.Helper()
	task, err := newTask(t, typ, payload, problem.Limits{})
	if err != nil {
		t.Fatalf("%s: %v", payload, err)
	}
	return task
}

// Every malformed or over-limit payload is refused at parse time with
// an error naming the fault — before the dense N² matrix exists, since
// ising.NewModel and SetJ panic on bad input by design.
func TestNewTaskRejections(t *testing.T) {
	lim := problem.Limits{MaxSpins: 16}
	for _, tc := range []struct {
		typ     problem.Type
		payload string
		want    string
	}{
		{Type{}, `{"n":3,"j":[],"bogus":1}`, "unknown field"},
		{Type{}, `{"n":3,"j":[{"i":0,"j":1,"v":1,"w":2}]}`, "unknown field"},
		{Type{}, `[1,2]`, "ising payload"},
		{Type{}, `{}`, "specify a model"},
		{Type{}, `{"n":4,"generate":{"n":4,"density":0.5}}`, "not both"},
		{Type{}, `{"generate":{"n":1,"density":0.5}}`, "generate.n must be >= 2"},
		{Type{}, `{"generate":{"n":17,"density":0.5}}`, "at most 16"},
		{Type{}, `{"generate":{"n":4,"density":1.5}}`, "density must be in [0,1]"},
		{Type{}, `{"n":1,"j":[]}`, "n must be >= 2"},
		{Type{}, `{"n":17,"h":[{"i":0,"v":1}]}`, "at most 16"},
		{Type{}, `{"n":3,"j":[{"i":0,"j":3,"v":1}]}`, "j[0]: coupling (0,3) out of range"},
		{Type{}, `{"n":3,"j":[{"i":-1,"j":0,"v":1}]}`, "out of range"},
		{Type{}, `{"n":3,"j":[{"i":0,"j":1,"v":1},{"i":2,"j":2,"v":1}]}`, "j[1]: self-coupling"},
		{Type{}, `{"n":3,"h":[{"i":3,"v":1}]}`, "h[0]: field index 3 out of range"},
		{Type{}, `{"n":3,"j":[{"i":0,"j":1,"v":1e308},{"i":1,"j":2,"v":1e308}]}`, "finite sum"},
		{Type{}, `{"n":3,"j":[{"i":0,"j":1,"v":1e308}],"h":[{"i":2,"v":-1e308}]}`, "finite sum"},
		{Type{}, `{"n":3,"algorithm":"tabu"}`, "unknown algorithm"},
		{QUBOType{}, `{"n":3,"q":[],"extra":true}`, "unknown field"},
		{QUBOType{}, `"q"`, "qubo payload"},
		{QUBOType{}, `{}`, "specify a matrix"},
		{QUBOType{}, `{"n":3,"generate":{"n":3,"density":0.5}}`, "not both"},
		{QUBOType{}, `{"generate":{"n":40,"density":0.5}}`, "at most 16"},
		{QUBOType{}, `{"generate":{"n":4,"density":-0.1}}`, "density must be in [0,1]"},
		{QUBOType{}, `{"n":3,"q":[{"i":0,"j":5,"v":1}]}`, "q[0]: entry (0,5) out of range"},
		{QUBOType{}, `{"n":2,"q":[{"i":0,"j":0,"v":1e308},{"i":0,"j":0,"v":1e308}]}`, "finite sum"},
		{QUBOType{}, `{"n":2,"q":[{"i":0,"j":1,"v":1e308},{"i":1,"j":0,"v":-1e308}]}`, "finite sum"},
		{QUBOType{}, `{"n":3,"q":[{"i":0,"j":0,"v":1}],"algorithm":"x"}`, "unknown algorithm"},
	} {
		_, err := newTask(t, tc.typ, tc.payload, lim)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: error %v, want one containing %q", tc.typ.Name(), tc.payload, err, tc.want)
		}
	}
}

// Large but finite coefficients are accepted, and their results stay
// finite and encodable.
func TestLargeFiniteCoefficientsAccepted(t *testing.T) {
	for _, tc := range []struct {
		typ     problem.Type
		payload string
	}{
		{Type{}, `{"n":3,"j":[{"i":0,"j":1,"v":0.7e308},{"i":1,"j":2,"v":-0.7e308}],"h":[{"i":1,"v":0.3e308}]}`},
		{QUBOType{}, `{"n":3,"q":[{"i":0,"j":1,"v":0.7e308},{"i":1,"j":2,"v":-0.7e308},{"i":1,"j":1,"v":0.3e308}],"algorithm":"sca"}`},
	} {
		res, err := mustTask(t, tc.typ, tc.payload).Solve(context.Background(), problem.Run{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(res.Objective, 0) || math.IsNaN(res.Objective) {
			t.Fatalf("%s: objective %g", tc.payload, res.Objective)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("%s: result not encodable: %v", tc.payload, err)
		}
	}
}

// InstanceHash identifies the model, not its wire spelling: entry
// order and the (i,j)/(j,i) orientation do not matter, while any
// coefficient change does. DesignHash folds only the run parameters.
// The pinned values guard the result cache across releases: changing
// either hash orphans every cached result.
func TestHashStability(t *testing.T) {
	a := mustTask(t, Type{}, `{"n":3,"j":[{"i":0,"j":1,"v":1},{"i":1,"j":2,"v":-2}],"h":[{"i":2,"v":0.5}],"seed":3}`)
	b := mustTask(t, Type{}, `{"name":"relabeled","n":3,"h":[{"i":2,"v":0.5}],"j":[{"i":2,"j":1,"v":-2},{"i":1,"j":0,"v":1}],"seed":3}`)
	if a.InstanceHash() != b.InstanceHash() || a.DesignHash() != b.DesignHash() {
		t.Fatal("reordered, relabeled spelling of one model hashes differently")
	}
	const (
		wantInstance = "ising:a1d6ec3f47b734399981d7e46087f56f1caa570b425e9cf649b40f6f032e7534"
		wantDesign   = "ising:ffbbe2546c68abf3b0919c284f1f575bedef49ca803046cd0548ceb0ac9b3620"
	)
	if got := a.InstanceHash(); got != wantInstance {
		t.Errorf("InstanceHash = %s, pinned %s", got, wantInstance)
	}
	if got := a.DesignHash(); got != wantDesign {
		t.Errorf("DesignHash = %s, pinned %s", got, wantDesign)
	}
	c := mustTask(t, Type{}, `{"n":3,"j":[{"i":0,"j":1,"v":1},{"i":1,"j":2,"v":-2.5}],"h":[{"i":2,"v":0.5}],"seed":3}`)
	if c.InstanceHash() == a.InstanceHash() {
		t.Error("changed coupling kept the InstanceHash")
	}
	for _, p := range []string{
		`{"n":3,"j":[{"i":0,"j":1,"v":1},{"i":1,"j":2,"v":-2}],"h":[{"i":2,"v":0.5}],"seed":4}`,
		`{"n":3,"j":[{"i":0,"j":1,"v":1},{"i":1,"j":2,"v":-2}],"h":[{"i":2,"v":0.5}],"seed":3,"sweeps":7}`,
		`{"n":3,"j":[{"i":0,"j":1,"v":1},{"i":1,"j":2,"v":-2}],"h":[{"i":2,"v":0.5}],"seed":3,"algorithm":"sca"}`,
	} {
		d := mustTask(t, Type{}, p)
		if d.DesignHash() == a.DesignHash() {
			t.Errorf("%s: run parameter change kept the DesignHash", p)
		}
		if d.InstanceHash() != a.InstanceHash() {
			t.Errorf("%s: run parameter change moved the InstanceHash", p)
		}
	}
	// The same Ising image under the qubo type is a different problem.
	q := mustTask(t, QUBOType{}, `{"n":2,"q":[{"i":0,"j":1,"v":-4}]}`)
	i := mustTask(t, Type{}, `{"n":2,"j":[{"i":0,"j":1,"v":1}],"h":[{"i":0,"v":1},{"i":1,"v":1}]}`)
	if q.InstanceHash() == i.InstanceHash() || q.DesignHash() == i.DesignHash() {
		t.Error("qubo and ising tasks share a hash")
	}
}

// The QUBO→Ising mapping is exact: for every one of the 2^n
// assignments of small random instances, xᵀQx evaluated straight from
// the wire entries equals the Ising image's energy plus one constant
// offset, and the task's own objective evaluator agrees. So minimizing
// the Ising energy minimizes the QUBO.
func TestQUBOIsingEquivalenceBruteForce(t *testing.T) {
	r := rng.New(11)
	for inst := 0; inst < 20; inst++ {
		n := 2 + inst%7
		var q []CouplingSpec
		for k := 0; k < 2*n; k++ {
			q = append(q, CouplingSpec{I: r.Intn(n), J: r.Intn(n), V: math.Round((4*r.Float64()-2)*8) / 8})
		}
		payload, err := json.Marshal(QUBOSpec{N: n, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		task := mustTask(t, QUBOType{}, string(payload))
		m := task.Model()
		offset := math.NaN()
		for mask := 0; mask < 1<<n; mask++ {
			bits := make([]int8, n)
			spins := make([]int8, n)
			for i := range bits {
				spins[i] = -1
				if mask>>i&1 == 1 {
					bits[i], spins[i] = 1, 1
				}
			}
			var direct float64
			for _, c := range q {
				direct += c.V * float64(bits[c.I]) * float64(bits[c.J])
			}
			if got := task.quboValue(bits); math.Abs(got-direct) > 1e-9 {
				t.Fatalf("instance %d bits %v: quboValue %g, direct xᵀQx %g", inst, bits, got, direct)
			}
			d := direct - m.Energy(spins)
			if math.IsNaN(offset) {
				offset = d
			} else if math.Abs(d-offset) > 1e-9 {
				t.Fatalf("instance %d bits %v: xᵀQx - H = %g, other assignments give %g", inst, bits, d, offset)
			}
		}
	}
}

// A solved QUBO reports the objective of the bits it returns.
func TestQUBOSolveObjectiveMatchesBits(t *testing.T) {
	for _, algo := range []string{"metropolis", "sca"} {
		task := mustTask(t, QUBOType{}, `{"generate":{"n":8,"density":0.6,"seed":2},"seed":5,"algorithm":"`+algo+`"}`)
		res, err := task.Solve(context.Background(), problem.Run{})
		if err != nil {
			t.Fatal(err)
		}
		d := res.Detail.(QUBODetail)
		if got := task.quboValue(d.Bits); got != res.Objective || d.Objective != res.Objective {
			t.Fatalf("%s: objective %g, detail %g, bits evaluate to %g", algo, res.Objective, d.Objective, got)
		}
		again, err := task.Solve(context.Background(), problem.Run{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Objective != res.Objective {
			t.Fatalf("%s: not deterministic: %g then %g", algo, res.Objective, again.Objective)
		}
	}
}

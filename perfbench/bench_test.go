package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"cimsa/internal/geom"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // percentile
	}{
		{1, 100},  // nothing lies beyond any candidate
		{5, 75},   // too few for 10 beyond: p75, with 1 beyond
		{15, 75},  // p50 leaves only 7 beyond; p75 leaves 3
		{19, 75},  // p50 leaves only 9 beyond
		{20, 50},  // 10 beyond p50
		{40, 75},  // 10 beyond p75
		{99, 75},  // p90 leaves 9
		{100, 90}, // p90 leaves 10
		{200, 95},
		{1000, 99},
		{10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted input
		}
		got := tail(xs)
		want := tc.want
		if got.Percentile != want || got.Samples != tc.n {
			t.Errorf("n=%d: tail percentile %v over %d samples, want %v over %d", tc.n, got.Percentile, got.Samples, want, tc.n)
		}
		if tc.n >= 20 && beyond(tc.n, want) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond(tc.n, want), want)
		}
		// Nearest rank: the value at rank ceil(p*n) of the sorted samples.
		if wantV := float64(rank(tc.n, want)); got.Value != wantV {
			t.Errorf("n=%d: tail value %v, want %v", tc.n, got.Value, wantV)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}

func bodies(jobs []jobSpec) []byte {
	var b bytes.Buffer
	for _, j := range jobs {
		b.Write(j.Body)
		b.WriteString(j.Tenant)
	}
	return b.Bytes()
}

func TestSeededInputsRepeat(t *testing.T) {
	gen := func(seed uint64) []byte { return bodies(fleetJobs(seed, 12)) }
	if a, b := gen(7), gen(7); !bytes.Equal(a, b) {
		t.Error("seed 7 gave different requests on two calls")
	}
	if a, c := gen(7), gen(8); bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same requests")
	}
	in1, _, err := plaInstance(3)
	if err != nil {
		t.Fatal(err)
	}
	in2, _, _ := plaInstance(3)
	in3, _, _ := plaInstance(4)
	same := func(a, b []geom.Point) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(in1.Cities, in2.Cities) || same(in1.Cities, in3.Cities) {
		t.Error("pla instance does not follow its seed")
	}
}

func TestFleetRepeatsPointBackward(t *testing.T) {
	jobs := fleetJobs(5, 60)
	repeats := 0
	for i, j := range jobs {
		if j.Repeats < 0 {
			continue
		}
		repeats++
		src := jobs[j.Repeats]
		if j.Repeats >= i || src.Repeats >= 0 || !bytes.Equal(src.Body, j.Body) {
			t.Errorf("job %d repeats job %d, which is not an earlier original with the same body", i, j.Repeats)
		}
	}
	if repeats != 20 {
		t.Errorf("%d repeats in 60 jobs, want 20", repeats)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "bench.job", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "http.post", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 2, Name: "problem.taskfor", Start: 12 * ms, End: 16 * ms},
		{ID: 4, Parent: 2, Name: "serve.submit", Start: 15 * ms, End: 25 * ms}, // overlaps taskfor
		{ID: 5, Parent: 1, Name: "serve.slot", Start: 40 * ms, End: 120 * ms},  // runs past its parent
		{ID: 6, Parent: 5, Name: "serve.solve", Start: 50 * ms, End: 90 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":   100*ms - 20*ms - 60*ms, // the slot counts only up to 100ms
		"http":    20*ms - 13*ms,          // children cover 12..25
		"problem": 4 * ms,
		"serve":   10*ms + 80*ms - 40*ms + 40*ms,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestLinkParentsByJob(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.epoch.Add(time.Duration(ms) * time.Millisecond) }
	slotA := rec.Add("serve.slot", "a", 0, at(0), at(100))
	rec.Add("serve.slot", "b", 0, at(0), at(100))
	offer1 := rec.Add("fleet.offer", "a", 0, at(10), at(40))
	offer2 := rec.Add("fleet.offer", "a", 0, at(50), at(90)) // a re-offer
	claim := rec.Add("fleet.claim", "a", 0, at(55), at(60))
	early := rec.Add("fleet.claim", "a", 0, at(5), at(8)) // before any offer
	empty := rec.Add("fleet.claim", "", 0, at(20), at(21))
	rec.Link(map[string]string{"fleet.offer": "serve.slot", "fleet.claim": "fleet.offer"})
	want := map[int64]int64{offer1: slotA, offer2: slotA, claim: offer2, early: 0, empty: 0}
	for _, s := range rec.Spans() {
		if w, ok := want[s.ID]; ok && s.Parent != w {
			t.Errorf("span %d (%s of job %q) has parent %d, want %d", s.ID, s.Name, s.Job, s.Parent, w)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command prints %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"cimsa/internal/tsplib"
)

// plaN is the city count of the paper's headline instance, pla85900.
const plaN = 85900

// plaInstance generates the solve-pla85k input. It goes through TSPLIB
// text and back, the way a user loads pla85900.tsp, so set-up time
// includes parsing.
func plaInstance(seed uint64) (*tsplib.Instance, time.Duration, error) {
	start := time.Now()
	in := tsplib.Generate("pla85900", plaN, tsplib.StylePLA, seed)
	gen := time.Since(start)
	var sb strings.Builder
	if err := tsplib.Write(&sb, in); err != nil {
		return nil, 0, err
	}
	parsed, err := tsplib.Parse(strings.NewReader(sb.String()))
	return parsed, gen, err
}

// jobSpec is one request of the fleet workload.
type jobSpec struct {
	N      int
	Tenant string
	// Body is the POST /v1/jobs request body.
	Body []byte
	// Repeats is the index of the earlier job whose body this one
	// resubmits exactly, or -1.
	Repeats int
}

type tspOptions struct {
	PMax int    `json:"pmax"`
	Seed uint64 `json:"seed"`
}

type tspPayload struct {
	TSPLIB  string     `json:"tsplib"`
	Options tspOptions `json:"options"`
}

// tspStyles rotates the uploaded instances through the generator's
// spatial styles.
var tspStyles = []string{"pla", "pcb", "rl", "usa", "uni"}

func tspBody(r *rand.Rand, n int) []byte {
	name := fmt.Sprintf("%s%d", tspStyles[r.IntN(len(tspStyles))], n)
	in := tsplib.Generate(name, n, tsplib.StyleForName(name), r.Uint64())
	var sb strings.Builder
	_ = tsplib.Write(&sb, in) // a strings.Builder never fails
	return mustJSON(map[string]any{"tsp": tspPayload{
		TSPLIB:  sb.String(),
		Options: tspOptions{PMax: 3, Seed: r.Uint64N(1 << 20)},
	}})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal: %v", err))
	}
	return b
}

// stratified returns count sizes spread evenly over [lo, hi], jittered
// within their strata and shuffled, so every run sees the same size mix
// while the order and exact sizes follow the seed.
func stratified(r *rand.Rand, count, lo, hi int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = lo + int((float64(i)+r.Float64())/float64(count)*float64(hi-lo+1))
		out[i] = min(out[i], hi)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// fleetJobs builds the fleet-mid-repeat request sequence: TSP uploads
// of 1,000 to 5,000 cities where every third job resubmits an earlier
// one exactly, alternately the job just before it (sent while that one
// is still in flight, so the two coalesce) and one at least six jobs
// back (usually finished, so the cache answers it).
func fleetJobs(seed uint64, count int) []jobSpec {
	r := newRand(seed, 0xf1ee7)
	sizes := stratified(r, count-count/3, 1000, 5000)
	tenants := balancedTenants(r, count)
	jobs := make([]jobSpec, count)
	repeats := 0
	for i := range jobs {
		j := jobSpec{Tenant: tenants[i], Repeats: -1}
		if i%3 == 2 {
			src := i - 1
			if repeats%2 == 1 && i >= 8 {
				src = i - 6 - r.IntN(min(i-6, 6)+1)
				for jobs[src].Repeats >= 0 {
					src--
				}
			}
			repeats++
			j.N, j.Body, j.Repeats = jobs[src].N, jobs[src].Body, src
			j.Tenant = jobs[src].Tenant
		} else {
			j.N, sizes = sizes[0], sizes[1:]
			j.Body = tspBody(r, j.N)
		}
		jobs[i] = j
	}
	return jobs
}

// balancedTenants assigns half the jobs to each of two equally
// weighted tenants, in seeded order.
func balancedTenants(r *rand.Rand, count int) []string {
	out := make([]string, count)
	for i := range out {
		out[i] = "tenant-a"
		if i%2 == 1 {
			out[i] = "tenant-b"
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

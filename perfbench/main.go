// Command perfbench is the repository's benchmark. It runs one named
// workload with a seed, measures it for a fixed time, checks every
// output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload fleet-mid-repeat --seed 3 --seconds 50 --trace 0
//
// Workloads (see METRICS.md for why each exists and which metric each
// layer should move):
//
//   - solve-pla85k: one caller in a closed loop solving an 85,900-city
//     pla-style instance with the paper's defaults.
//   - fleet-mid-repeat: TSP uploads of 1k-5k cities, a third of them
//     exact repeats, sent in a closed loop with one job in flight per
//     worker into a coordinator with two workers.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends the first
// half of the run untraced and the second half recording spans around
// every call into the program's layers, then reports the per-layer
// metrics, each layer's self time, and the tracing overhead; the spans
// are written to .bench_build/perfbench-trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// run is one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	nproc    int
	workDir  string // scratch state under .bench_build
	rec      *Recorder
	// deadline is when every phase stops waiting for the service, so
	// the run ends well within its time limit even if the service stalls.
	deadline time.Time
}

// runLimit bounds a run's measuring and waiting.
const runLimit = 150 * time.Second

// outcome is what a workload measured and checked.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
	detail    map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, detail: map[string]any{}}
}

// fail records a failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// recordTail stores a tail metric and, beside it in the detail record,
// its percentile and sample count.
func (o *outcome) recordTail(name string, xs []float64) {
	t := tail(xs)
	o.metrics[name] = t.Value
	o.detail[name] = t
}

var workloads = map[string]func(*run) (*outcome, error){
	"solve-pla85k":     runSolve,
	"fleet-mid-repeat": runFleet,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "solve-pla85k | fleet-mid-repeat")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	env := readEnv(root)
	if err := env.check(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "perfbench-state-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		workDir:  work,
		deadline: time.Now().Add(runLimit),
	}
	out, err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.trace {
		spans := r.rec.Spans()
		for layer, d := range selfTimes(spans) {
			out.metrics["self_s."+layer] = d.Seconds()
		}
		path := filepath.Join(root, ".bench_build", "perfbench-trace", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := r.rec.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			out.detail["spans_file"] = path
			out.detail["spans"] = len(spans)
		}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	out.detail["env"] = env
	out.detail["workload"] = r.workload
	out.detail["seed"] = r.seed
	if r.trace {
		out.metrics = pick(out.metrics, perLayer)
	} else {
		out.metrics = pick(out.metrics, endToEnd)
	}
	printDetail(out.detail)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, max(out.attempted, 1), out.failed, map[string]metric{}}
	for name, v := range out.metrics {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if out.failed > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns exactly the named metrics, with 0 for any the workload
// did not exercise (a layer that did no work).
func pick(all map[string]float64, names []metricDef) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, m := range names {
		out[m.name] = all[m.name]
	}
	return out
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// printDetail writes the run's context (environment, tail
// percentiles and their sample counts, tour hash) as one
// JSON line ahead of the result line.
func printDetail(d map[string]any) {
	b, err := json.Marshal(map[string]any{"perfbench_detail": d})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: detail: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

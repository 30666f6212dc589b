package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"cimsa"
	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/heuristics"
	"cimsa/internal/noise"
	"cimsa/internal/ppa"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// setupRepeats is how many times each workload sets itself up; setup_s
// is the median.
const setupRepeats = 7

// levelMetrics is how many hierarchy levels, counted up from the leaf
// level, get their own clustered.level_s.<k> metric; the levels above
// are summed into clustered.level_s.upper.
const levelMetrics = 6

// runSolve is the solve-pla85k workload: one caller in a closed loop,
// one cimsa.SolveContext at a time, on an 85,900-city instance with the
// paper's defaults and the PPA report on.
func runSolve(r *run) (*outcome, error) {
	out := newOutcome()
	var in *tsplib.Instance
	var setups, gens []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var gen time.Duration
		var err error
		in, gen, err = plaInstance(r.seed)
		if err != nil {
			return nil, fmt.Errorf("generating instance: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, gen.Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["tsplib.generate_s"] = median(gens)

	opts := cimsa.Options{PMax: 3, Seed: r.seed, Workers: cimsa.WorkersAuto}
	ctx := context.Background()
	var (
		solveS, ackMS []float64
		hash          string
		length        float64
		ls            *layerSamples
	)
	// solve runs one cimsa.SolveContext and checks its output. It
	// returns the wall time in seconds, the report, and the time from
	// the solver's last Progress event to the call's return.
	solve := func() (float64, *cimsa.Report, time.Duration) {
		out.attempted++
		var first, last time.Time
		o := opts
		o.Progress = func(clustered.ProgressEvent) {
			last = time.Now()
			if first.IsZero() {
				first = last
			}
		}
		start := time.Now()
		rep, err := cimsa.SolveContext(ctx, in, o)
		end := time.Now()
		secs := end.Sub(start).Seconds()
		if err != nil {
			out.fail("solve: %v", err)
			return 0, nil, 0
		}
		if h, ok := checkTour(out, in, rep.Tour, rep.Length); ok {
			if hash == "" {
				hash, length = h, rep.Length
			} else if h != hash {
				out.fail("tour hash %s differs from the run's first solve %s", h, hash)
			}
		}
		if rep.Chip.N != in.N() {
			out.fail("PPA report covers %d cities, want %d", rep.Chip.N, in.N())
		}
		if !first.IsZero() {
			ackMS = append(ackMS, float64(first.Sub(start))/1e6)
		}
		return secs, rep, end.Sub(last)
	}

	gc := newGCMeter()
	measured := r.seconds
	if r.trace {
		measured /= 2
	}
	begin := time.Now()
	for time.Since(begin) < measured || len(solveS) < 2 {
		if s, rep, _ := solve(); rep != nil {
			solveS = append(solveS, s)
		}
	}
	window := time.Since(begin).Seconds()
	out.detail["solves"] = len(solveS)
	if r.trace {
		ls = &layerSamples{levels: map[string][]float64{}}
		rec := newRecorder()
		r.rec = rec
		tb := time.Now()
		for i := 0; time.Since(tb) < measured || i < 1; i++ {
			job := "solve-" + strconv.Itoa(i)
			if err := tracedSolve(rec, job, in, opts, ls, solve); err != nil {
				out.fail("traced solve: %v", err)
				break
			}
		}
		// The timed cimsa.SolveContext calls run with the same Progress
		// hook traced or not, and no span is recorded inside them, so
		// tracing adds nothing to solve_s_p50.
		out.metrics["trace.overhead_frac"] = 0
		ls.report(out.metrics)
	}
	out.metrics["runtime.gc_cpu_frac"] = gc.frac()
	out.metrics["peak_rss_mb"] = peakRSSMB()

	p50 := median(solveS)
	out.metrics["solve_s_p50"] = p50
	out.metrics["solve_cities_per_s"] = ratio(float64(in.N()), p50)
	out.metrics["done_ms_p50"] = p50 * 1000
	out.recordTail("done_ms_tail", scale(solveS, 1000))
	out.metrics["ack_ms_p50"] = median(ackMS)
	out.recordTail("ack_ms_tail", ackMS)
	out.metrics["jobs_per_s"] = ratio(float64(len(solveS)), window)
	out.detail["tour_sha256"] = hash

	// The reference tour is outside the timed path; it is deterministic
	// per seed.
	if hash != "" {
		_, ref := heuristics.Reference(in)
		out.metrics["tour_ratio"] = ratio(length, ref)
	}
	out.metrics["ok_frac"] = 1 - ratio(float64(out.failed), float64(max(out.attempted, 1)))
	return out, nil
}

// checkTour validates a returned tour against the instance and its
// reported length, and returns the tour's hash.
func checkTour(out *outcome, in *tsplib.Instance, t tour.Tour, length float64) (string, bool) {
	if err := t.Validate(in.N()); err != nil {
		out.fail("invalid tour: %v", err)
		return "", false
	}
	if got := t.Length(in); got != length {
		out.fail("tour length recomputes to %v, reported %v", got, length)
		return "", false
	}
	return tourHash(t), true
}

func tourHash(t tour.Tour) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range t.Canonical() {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// layerSamples collects the traced solve's per-layer measurements.
type layerSamples struct {
	build, anneal, coreOverhead, chipMS, nsPerCycle []float64
	epochMS                                         []float64
	levels                                          map[string][]float64
	stats                                           clustered.Stats
}

func (ls *layerSamples) report(m map[string]float64) {
	m["cluster.build_s"] = median(ls.build)
	m["clustered.anneal_s"] = median(ls.anneal)
	m["core.overhead_s"] = median(ls.coreOverhead)
	m["ppa.chip_ms"] = median(ls.chipMS)
	m["clustered.ns_per_sim_cycle"] = median(ls.nsPerCycle)
	m["clustered.epoch_ms_p50"] = median(ls.epochMS)
	for k, xs := range ls.levels {
		m["clustered.level_s."+k] = median(xs)
	}
	s := ls.stats
	m["clustered.proposed"] = float64(s.Proposed)
	m["clustered.accept_ratio"] = ratio(float64(s.Accepted), float64(s.Proposed))
	m["clustered.write_backs"] = float64(s.WriteBacks)
	m["clustered.weight_writes"] = float64(s.WeightWrites)
	m["clustered.sim_cycles"] = float64(s.Cycles)
	m["clustered.boundary_bits"] = float64(s.BoundaryTransferBits)
}

// tracedSolve times each layer of one solve from outside the program:
// cluster.Build on its own, clustered.SolveContext with the options
// core would pass it (level and epoch times from its Progress events),
// the full cimsa.SolveContext, and ppa.Chip.
func tracedSolve(rec *Recorder, job string, in *tsplib.Instance, opts cimsa.Options, ls *layerSamples, solve func() (float64, *cimsa.Report, time.Duration)) error {
	root := time.Now()
	strategy := cluster.Strategy{Kind: cluster.SemiFlex, P: opts.PMax}

	t0 := time.Now()
	if _, err := cluster.Build(in.Cities, strategy); err != nil {
		return err
	}
	t1 := time.Now()

	type event struct {
		at time.Time
		ev clustered.ProgressEvent
	}
	var events []event
	copts := clustered.Options{
		Strategy: strategy,
		Schedule: noise.PaperSchedule(),
		Seed:     opts.Seed,
		Workers:  opts.Workers,
		Progress: func(ev clustered.ProgressEvent) { events = append(events, event{time.Now(), ev}) },
	}
	cres, err := clustered.SolveContext(context.Background(), in, copts)
	t2 := time.Now()
	if err != nil {
		return err
	}
	t3 := time.Now()
	_, rep, after := solve()
	t4 := time.Now()
	if rep == nil {
		return fmt.Errorf("cimsa.SolveContext failed")
	}
	if !tour.Equal(rep.Tour, cres.Tour) {
		// The direct clustered call must reproduce the facade's solve,
		// or its timings describe a different computation.
		return fmt.Errorf("clustered.SolveContext tour differs from cimsa.SolveContext's")
	}

	prof := ppa.RunProfile{
		Levels:             cres.Stats.Levels,
		IterationsPerLevel: noise.PaperSchedule().TotalIters(),
		EpochIters:         noise.PaperSchedule().EpochIters,
	}
	const chipCalls = 100
	t5 := time.Now()
	for i := 0; i < chipCalls; i++ {
		if _, err := ppa.Chip(in.N(), opts.PMax, prof, ppa.Tech16nm()); err != nil {
			return err
		}
	}
	t6 := time.Now()

	rootID := rec.Add("bench.solve", job, 0, root, t6)
	rec.Add("cluster.build", job, rootID, t0, t1)
	csID := rec.Add("clustered.solve", job, rootID, t1, t2)
	rec.Add("core.solve", job, rootID, t3, t4)
	rec.Add("ppa.chip", job, rootID, t5, t6)

	// A level runs from the previous level's final event (the first
	// event, for the top annealed level) to its own final event.
	var levelS []float64
	var levelStart time.Time
	for i, e := range events {
		if i == 0 {
			levelStart = e.at
		} else if events[i-1].ev.Level == e.ev.Level {
			ls.epochMS = append(ls.epochMS, float64(e.at.Sub(events[i-1].at))/1e6)
		}
		if e.ev.Iter == e.ev.Iters {
			rec.Add("clustered.level", job, csID, levelStart, e.at)
			levelS = append(levelS, e.at.Sub(levelStart).Seconds())
			levelStart = e.at
		}
	}
	// Count levels up from the leaf: the last level annealed is k=0.
	upper := 0.0
	for i, d := range levelS {
		if k := len(levelS) - 1 - i; k < levelMetrics {
			ls.levels[strconv.Itoa(k)] = append(ls.levels[strconv.Itoa(k)], d)
		} else {
			upper += d
		}
	}
	ls.levels["upper"] = append(ls.levels["upper"], upper)

	build := t1.Sub(t0).Seconds()
	cs := t2.Sub(t1).Seconds()
	ls.build = append(ls.build, build)
	ls.anneal = append(ls.anneal, cs-build)
	// core's work after the anneal, within one call: from the last
	// Progress event to the facade's return, less the ppa.Chip call it
	// makes there, which is timed on its own.
	chip := t6.Sub(t5) / chipCalls
	ls.coreOverhead = append(ls.coreOverhead, (after - chip).Seconds())
	ls.chipMS = append(ls.chipMS, float64(chip)/1e6)
	if cres.Stats.Cycles > 0 {
		ls.nsPerCycle = append(ls.nsPerCycle, float64(t2.Sub(t1).Nanoseconds())/float64(cres.Stats.Cycles))
	}
	ls.stats = cres.Stats
	return nil
}

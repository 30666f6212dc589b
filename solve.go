package cimsa

import (
	"context"
	"fmt"

	"cimsa/internal/checkpoint"
	"cimsa/internal/cluster"
	"cimsa/internal/clustered"
	"cimsa/internal/heuristics"
	"cimsa/internal/noise"
	"cimsa/internal/ppa"
)

// Report is the full solve outcome: solution, quality vs the classical
// reference solver, annealing statistics and the hardware PPA estimate.
type Report struct {
	// Instance and N identify the workload.
	Instance string
	N        int
	// Tour and Length are the solution.
	Tour   Tour
	Length float64
	// ReferenceLength is the classical reference tour length (0 unless
	// Options.Reference is set); OptimalRatio = Length / ReferenceLength.
	ReferenceLength float64
	OptimalRatio    float64
	// Solver carries the annealing statistics. Under Restarts > 1 every
	// work counter is the sum over all replicas (the energy model sees
	// the total work done), while Tour/Length come from the best one.
	Solver clustered.Stats
	// Chip carries the hardware PPA evaluation. It is the zero value
	// when Options.SkipHardware is set, and for an instance of at most
	// cluster.TopThreshold (10) cities: that tour comes from the exact
	// top-level solve alone, no level is annealed, and the chip model
	// has no run to price.
	Chip ChipReport
}

// defaultPMax is the cluster size Options.PMax = 0 selects: the paper's
// best quality/area trade-off.
const defaultPMax = 3

// mode resolves Options.Mode; empty selects the paper's noisy-CIM
// weights.
func (o Options) mode() (clustered.Mode, error) {
	if o.Mode == "" {
		return clustered.ModeNoisyCIM, nil
	}
	return clustered.ParseMode(o.Mode)
}

// strategy is the paper's semi-flexible clustering at PMax — the only
// strategy the chip realizes.
func (o Options) strategy() cluster.Strategy {
	p := o.PMax
	if p == 0 {
		p = defaultPMax
	}
	return cluster.Strategy{Kind: cluster.SemiFlex, P: p}
}

// restarts is the effective replica count (>= 1).
func (o Options) restarts() int {
	if o.Restarts < 1 {
		return 1
	}
	return o.Restarts
}

// checkpointExpect returns the configuration fingerprint a checkpoint
// of this design point carries and a resumed snapshot is verified
// against. The fabric identity is the canonical kind, the parameter
// string at the configured fabric seed and the version tag; per-replica
// fabric seeds derive from Seed and FabricSeed, so with Expect.Seed this
// pins the entire noise stream: a snapshot resumed under a different
// fabric (or a re-seeded chip) is rejected instead of silently
// diverging.
func (o Options) checkpointExpect() (checkpoint.Expect, error) {
	mode, err := o.mode()
	if err != nil {
		return checkpoint.Expect{}, err
	}
	f, err := noise.New(o.Fabric, o.FabricSeed)
	if err != nil {
		return checkpoint.Expect{}, err
	}
	return checkpoint.Expect{
		Seed:          o.Seed,
		Mode:          mode.String(),
		Restarts:      o.restarts(),
		Strategy:      o.strategy(),
		Schedule:      noise.PaperSchedule(),
		FabricKind:    f.Kind(),
		FabricParams:  f.Params(),
		FabricVersion: f.Version(),
	}, nil
}

// solve runs the replica loop for options that passed Validate: Restarts
// independent replicas (distinct seeds and noise fabrics, the software
// analogue of multi-replica annealer chips), the best tour kept, every
// replica's work summed, then the hardware and reference steps.
//
// hook, when non-nil, receives a durable snapshot at every write-back
// epoch of every replica, at every restart boundary (Solver == nil,
// between replicas) and — with Snapshot.Solver.Flush set — when ctx is
// cancelled; returning an error aborts the solve with that error.
// resume, when non-nil, continues from a snapshot hook produced. It is
// verified against the instance and the options before any annealing,
// so a mismatched snapshot fails the solve with a diagnostic rather
// than silently annealing from bad state.
func solve(ctx context.Context, in *Instance, opt Options, hook func(*checkpoint.Snapshot) error, resume *checkpoint.Snapshot) (*Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	mode, err := opt.mode()
	if err != nil {
		return nil, err
	}
	strategy := opt.strategy()
	schedule := noise.PaperSchedule()
	restarts := opt.restarts()

	var res clustered.Result
	var agg clustered.Stats
	var snapshot func(rep int, solver *clustered.Snapshot) *checkpoint.Snapshot
	if hook != nil || resume != nil {
		exp, err := opt.checkpointExpect()
		if err != nil {
			return nil, err
		}
		hash := checkpoint.InstanceHash(in)
		// snapshot assembles the durable checkpoint for replica rep: the
		// run identity, the best tour so far, the completed replicas'
		// aggregated stats and (mid-replica) the solver state.
		snapshot = func(rep int, solver *clustered.Snapshot) *checkpoint.Snapshot {
			s := &checkpoint.Snapshot{
				Instance:      in.Name,
				N:             in.N(),
				InstanceHash:  hash,
				Seed:          exp.Seed,
				Mode:          exp.Mode,
				Restarts:      exp.Restarts,
				Strategy:      exp.Strategy,
				Schedule:      exp.Schedule,
				FabricKind:    exp.FabricKind,
				FabricParams:  exp.FabricParams,
				FabricVersion: exp.FabricVersion,
				RNG:           checkpoint.Fingerprint(exp.Seed),
				Restart:       rep,
				BestLength:    res.Length,
				AggStats:      agg,
				Solver:        solver,
			}
			if len(res.Tour) > 0 {
				s.BestTour = append([]int(nil), res.Tour...)
			}
			return s
		}
		if resume != nil {
			if err := resume.Verify(in, exp); err != nil {
				return nil, err
			}
		}
	}

	startRep := 0
	var resumeSolver *clustered.Snapshot
	if resume != nil {
		startRep = resume.Restart
		agg = resume.AggStats
		if len(resume.BestTour) > 0 {
			res = clustered.Result{
				Tour:   append(Tour(nil), resume.BestTour...),
				Length: resume.BestLength,
			}
		}
		resumeSolver = resume.Solver
	}
	runLevels := 0
	for rep := startRep; rep < restarts; rep++ {
		seed := opt.Seed + uint64(rep)
		copts := clustered.Options{
			Strategy: strategy,
			Schedule: schedule,
			Mode:     mode,
			Seed:     seed,
			Workers:  opt.Workers,
		}
		if rep == startRep {
			// Mid-replica solver state applies only to the replica the
			// snapshot was taken in; later replicas start from scratch.
			copts.Resume = resumeSolver
		}
		if opt.Progress != nil {
			replica := rep
			progress := opt.Progress
			copts.Progress = func(ev clustered.ProgressEvent) {
				ev.Restart = replica
				progress(ev)
			}
		}
		if hook != nil {
			replica := rep
			copts.Checkpoint = func(cs *clustered.Snapshot) error {
				return hook(snapshot(replica, cs))
			}
		}
		fabricSeed := seed ^ 0xfab
		if opt.FabricSeed != 0 {
			fabricSeed = opt.FabricSeed + uint64(rep)
		}
		if opt.Fabric != "" || opt.FabricSeed != 0 {
			// An explicit substrate or chip seed: build it here for every
			// replica (each replica is a distinct chip: new fabric, new
			// errors). The kind was validated by Validate.
			f, err := noise.New(opt.Fabric, fabricSeed)
			if err != nil {
				return nil, fmt.Errorf("cimsa: %w", err)
			}
			copts.Fabric = f
		} else if rep > 0 {
			// Default substrate: replica 0 leaves Fabric nil so clustered
			// derives the identical pre-refactor default; later replicas
			// are distinct chips.
			copts.Fabric = noise.NewFabric(fabricSeed)
		}
		cur, err := clustered.SolveContext(ctx, in, copts)
		if err != nil {
			return nil, err
		}
		// Every replica must hand back a Hamiltonian cycle. A broken
		// permutation here means solver state corruption, and silently
		// comparing its Length against honest replicas could crown it
		// the winner — fail loudly instead.
		if err := cur.Tour.Validate(in.N()); err != nil {
			return nil, fmt.Errorf("cimsa: replica %d returned an invalid tour: %w", rep, err)
		}
		// Work accumulates symmetrically across every replica — win or
		// lose — so the energy/PPA inputs count all the work done, not
		// just the winner's share. The tour is the best replica's.
		agg.Add(cur.Stats)
		// The chip runs one replica's schedule; track the per-run level
		// count for the hardware profile (identical across replicas, and
		// a resumed replica's restored stats include its earlier levels).
		runLevels = cur.Stats.Levels
		if len(res.Tour) == 0 || cur.Length < res.Length {
			res = cur
		}
		if hook != nil && rep+1 < restarts {
			// Restart boundary: persist the inter-replica state so a kill
			// here resumes straight into replica rep+1.
			if err := hook(snapshot(rep+1, nil)); err != nil {
				return nil, fmt.Errorf("cimsa: checkpoint hook: %w", err)
			}
		}
	}
	rep := &Report{
		Instance: in.Name,
		N:        in.N(),
		Tour:     res.Tour,
		Length:   res.Length,
		Solver:   agg,
	}
	if !opt.SkipHardware && runLevels > 0 {
		prof := ppa.RunProfile{
			Levels:             runLevels,
			IterationsPerLevel: schedule.TotalIters(),
			EpochIters:         schedule.EpochIters,
		}
		chip, err := ppa.Chip(in.N(), strategy.P, prof, ppa.Tech16nm())
		if err != nil {
			return nil, fmt.Errorf("cimsa: hardware report: %w", err)
		}
		rep.Chip = chip
	}
	if opt.Reference {
		// The classical reference runs after annealing completes and is
		// not interruptible.
		_, ref := heuristics.Reference(in)
		rep.ReferenceLength = ref
		if ref > 0 {
			rep.OptimalRatio = rep.Length / ref
		}
	}
	return rep, nil
}

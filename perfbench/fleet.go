package main

import (
	"path/filepath"
	"syscall"
	"time"
)

// fleet-mid-repeat parameters.
const (
	// fleetWorkers is the number of in-process workers.
	fleetWorkers = 2
	// fleetOutstanding is how many jobs the load generator keeps in
	// flight: one per worker. With more, jobs queue behind each other
	// and the run-to-run spread of every latency about doubles.
	fleetOutstanding = fleetWorkers
	// fleetMaxRate caps the jobs the workload generates, per second of
	// measuring. A worker claims at most one job per 250 ms claim poll,
	// so two workers solve at most 8 jobs/s; with the repeats, which
	// need no solve, 12 jobs/s is the most the fleet can complete.
	fleetMaxRate = 12
	// fleetCheckpointEvery is the checkpoint cadence in write-back
	// epochs. cimserve's default is 1: about 68 snapshots per job here,
	// each saved with an fsync by the worker, then shipped to and
	// written with an fsync by the coordinator. Those synchronous round
	// trips stall whenever another tenant loads the host, and at 1 the
	// fleet's figures fell further than solve-pla85k's in such runs. At
	// 4 every layer of the checkpoint path still runs for every job, a
	// quarter as often.
	fleetCheckpointEvery = 4
	// fleetRatios caps how many results are compared against the
	// reference solver for tour_ratio.
	fleetRatios = 12
)

// runFleet is the fleet-mid-repeat workload: TSP uploads of 1k-5k
// cities, a third of them exact repeats, sent in a closed loop into a
// coordinator with two workers claiming over loopback HTTP. A traced
// run spends the second half of its time sending the same jobs again
// to a traced stack. Every result is checked at the end.
func runFleet(r *run) (*outcome, error) {
	out := newOutcome()
	measure := r.seconds
	if r.trace {
		measure /= 2
	}
	count := int(fleetMaxRate*measure.Seconds()) + fleetOutstanding
	// Flush what earlier runs left dirty, so their writeback does not
	// land on this run's fsyncs.
	syscall.Sync()
	s, jobs, err := setUp(r, out, func() []jobSpec { return fleetJobs(r.seed, count) })
	if err != nil {
		return nil, err
	}
	defer s.close()
	client, ht := loadClient(r.nproc)
	defer ht.CloseIdleConnections()

	gc := newGCMeter()
	runs := s.drive(client, jobs, measure, r.deadline)
	ps := summarize(out, runs)
	ps.report(out)
	serviceCounters(out, s, len(ps.solveS))
	out.metrics["runtime.gc_cpu_frac"] = gc.frac()
	if r.trace {
		if err := traceFleetPhase(r, out, ps, jobs, measure); err != nil {
			return nil, err
		}
	}
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.metrics["tour_ratio"] = median(s.checkResults(client, out, runs, fleetRatios))
	out.metrics["ok_frac"] = 1 - ratio(float64(out.failed), float64(max(out.attempted, 1)))
	return out, nil
}

// traceFleetPhase sends the same jobs again, for the same time, to a
// fresh traced stack, records the per-layer metrics and spans, and
// reports the tracing overhead as the relative change in done_ms_p50.
// The probes that time the journal and checkpoint.Save run after the
// phase, so the overhead covers the span recording alone.
func traceFleetPhase(r *run, out *outcome, untraced phaseStats, jobs []jobSpec, measure time.Duration) error {
	tr := newServiceTrace()
	r.rec = tr.rec
	s, err := startStack(filepath.Join(r.workDir, "traced"), tr)
	if err != nil {
		return err
	}
	defer s.close()
	client, ht := loadClient(r.nproc)
	defer ht.CloseIdleConnections()
	runs := s.drive(client, jobs, measure, r.deadline)
	ps := summarize(out, runs)
	out.metrics["trace.overhead_frac"] = ratio(median(ps.doneMS), median(untraced.doneMS)) - 1
	out.detail["traced_done_ms_p50"] = median(ps.doneMS)
	out.detail["untraced_done_ms_p50"] = median(untraced.doneMS)
	if err := tr.probe(filepath.Join(r.workDir, "probe"), runs); err != nil {
		return err
	}
	tr.linkJobSpans(runs)
	tr.report(out)
	s.checkResults(client, out, runs, 0)
	return nil
}

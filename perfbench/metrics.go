package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (metrics_test.go keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the solver or the service sees.
// Every workload reports each of them; METRICS.md says how each is
// measured on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"solve_s_p50", "s", "lower"},
	{"solve_cities_per_s", "cities/s", "higher"},
	{"tour_ratio", "ratio", "lower"},
	{"ack_ms_p50", "ms", "lower"},
	{"ack_ms_tail", "ms", "lower"},
	{"done_ms_p50", "ms", "lower"},
	{"done_ms_tail", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"ok_frac", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, reported by a traced run.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"tsplib.generate_s", "s", "lower"},
	{"cluster.build_s", "s", "lower"},
	{"clustered.anneal_s", "s", "lower"},
	{"clustered.level_s.0", "s", "lower"},
	{"clustered.level_s.1", "s", "lower"},
	{"clustered.level_s.2", "s", "lower"},
	{"clustered.level_s.3", "s", "lower"},
	{"clustered.level_s.4", "s", "lower"},
	{"clustered.level_s.5", "s", "lower"},
	{"clustered.level_s.upper", "s", "lower"},
	{"clustered.epoch_ms_p50", "ms", "lower"},
	{"clustered.ns_per_sim_cycle", "ns", "lower"},
	{"clustered.proposed", "count", "lower"},
	{"clustered.accept_ratio", "ratio", "higher"},
	{"clustered.write_backs", "count", "lower"},
	{"clustered.weight_writes", "count", "lower"},
	{"clustered.sim_cycles", "count", "lower"},
	{"clustered.boundary_bits", "count", "lower"},
	{"core.overhead_s", "s", "lower"},
	{"ppa.chip_ms", "ms", "lower"},
	{"problem.taskfor_ms_p50", "ms", "lower"},
	{"serve.journal_append_ms_p50", "ms", "lower"},
	{"serve.journal_append_ms_tail", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_tail", "ms", "lower"},
	{"serve.slot_overhead_ms_p50", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"checkpoint.writes_per_job", "count", "lower"},
	{"checkpoint.save_ms_p50", "ms", "lower"},
	{"checkpoint.bytes_p50", "bytes", "lower"},
	{"fairsched.wait_ratio", "ratio", "lower"},
	{"rescache.hit_ratio", "ratio", "higher"},
	{"rescache.coalesced", "count", "higher"},
	{"fleet.offer_ms_p50", "ms", "lower"},
	{"fleet.worker_solve_ms_p50", "ms", "lower"},
	{"fleet.claim_wait_ms_p50", "ms", "lower"},
	{"fleet.claim_rtt_ms_p50", "ms", "lower"},
	{"fleet.claim_empty_ratio", "ratio", "lower"},
	{"fleet.ship_ms_p50", "ms", "lower"},
	{"fleet.ships_per_job", "count", "lower"},
	{"fleet.ship_bytes_per_job", "bytes", "lower"},
	{"fleet.complete_ms_p50", "ms", "lower"},
	{"fleet.claimlog_ms_p50", "ms", "lower"},
	{"fleet.reassigned", "count", "lower"},
	{"fleet.stale_drops", "count", "lower"},
	{"self_s.bench", "s", "lower"},
	{"self_s.http", "s", "lower"},
	{"self_s.problem", "s", "lower"},
	{"self_s.serve", "s", "lower"},
	{"self_s.checkpoint", "s", "lower"},
	{"self_s.rescache", "s", "lower"},
	{"self_s.fleet", "s", "lower"},
	{"self_s.cluster", "s", "lower"},
	{"self_s.clustered", "s", "lower"},
	{"self_s.core", "s", "lower"},
	{"self_s.ppa", "s", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

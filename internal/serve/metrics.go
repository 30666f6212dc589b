package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cimsa/internal/fairsched"
	"cimsa/internal/fleet"
)

// Metrics holds the service counters in a Prometheus-compatible text
// exposition (hand-rolled: the module takes no dependencies). Gauges
// track the live queue/slot occupancy; counters are monotonic.
//
// The unlabeled cimserve_jobs_* families aggregate over every problem
// type and every tenant — their names and meanings predate the
// multi-problem registry and are stable. The cimserve_problem_jobs_*
// and cimserve_tenant_jobs_* families carry the same counters split by
// {problem="..."} and {tenant="..."} labels; they are separate families
// (not labeled series of the old names) so sum() over any one family
// never double-counts. All three sets are one JobCounters type, and
// the scheduler moves them together (move), so they cannot drift.
type Metrics struct {
	// JobCounters is the aggregate set (the unlabeled cimserve_jobs_*
	// families).
	JobCounters
	// RateLimited is the token-bucket slice of Rejected.
	RateLimited atomic.Int64

	CheckpointsWritten atomic.Int64 // durable solver snapshots written
	Resumes            atomic.Int64 // solves continued from a checkpoint
	ResumeFailures     atomic.Int64 // checkpoints rejected (job solved fresh)
	Recovered          atomic.Int64 // jobs re-enqueued from the journal on boot

	// Result-cache outcomes per dispatched job: a hit served the stored
	// result, a miss led the solve (and populated the cache on success),
	// a coalesce attached the job to an identical in-flight solve.
	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	CacheCoalesced atomic.Int64
	// CacheStats, when non-nil, supplies the live cache occupancy gauges
	// (entry count, marshalled bytes); nil means caching is off.
	CacheStats func() (entries int, bytes int64)

	// FleetStats, when non-nil, supplies the coordinator's fleet snapshot
	// for the cimserve_fleet_* families; nil means no fleet (standalone).
	// Node labels come from registration-guarded names (the fairsched
	// alphabet), so a hostile node ID cannot inject metric labels.
	FleetStats func() fleet.Stats

	// solveNanos and iterations accumulate over completed solves; their
	// ratio is the service's aggregate iterations/sec.
	solveNanos atomic.Int64
	iterations atomic.Int64

	mu         sync.Mutex
	perProblem map[string]*JobCounters
	perTenant  map[string]*JobCounters
}

// JobCounters is one set of job lifecycle counters: the aggregate, one
// problem type's or one tenant's. Tenants are always accounted by their
// canonical lane name (fairsched folds invalid or over-budget names
// into the default lane), so label cardinality is bounded by the tenant
// budget, not by hostile header churn.
type JobCounters struct {
	Submitted atomic.Int64 // jobs accepted into the queue
	// Rejected counts every backpressure refusal (HTTP 429): global
	// queue full, tenant max_queued quota, and tenant rate limit. Only
	// the aggregate and tenant sets count it: a refused submission never
	// became a job of any problem type.
	Rejected atomic.Int64
	Queued   atomic.Int64 // gauge: jobs waiting for a slot
	Running  atomic.Int64 // gauge: jobs occupying a solver slot
	Done     atomic.Int64 // jobs finished successfully
	Failed   atomic.Int64 // jobs finished with an error
	Canceled atomic.Int64 // jobs canceled (queued or running)

	// queueWait is the submit→dispatch latency histogram, observed on
	// tenant sets only.
	queueWait waitHist
}

// state returns the counter that holds jobs in st.
func (c *JobCounters) state(st State) *atomic.Int64 {
	switch st {
	case StateQueued:
		return &c.Queued
	case StateRunning:
		return &c.Running
	case StateDone:
		return &c.Done
	case StateFailed:
		return &c.Failed
	default:
		return &c.Canceled
	}
}

// queueWaitBuckets are the cimserve_queue_wait_seconds upper bounds; a
// +Inf bucket is implicit. Fast dispatch under light load lands in the
// millisecond buckets; a starved tenant shows up in the tail.
var queueWaitBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// waitHist is a fixed-bucket latency histogram (Prometheus classic
// histogram semantics: _bucket series are cumulative at exposition).
type waitHist struct {
	buckets  [len(queueWaitBuckets) + 1]atomic.Int64 // last = +Inf
	sumNanos atomic.Int64
	count    atomic.Int64
}

func (h *waitHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	i := 0
	for ; i < len(queueWaitBuckets); i++ {
		if secs <= queueWaitBuckets[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.sumNanos.Add(d.Nanoseconds())
	h.count.Add(1)
}

// Problem returns the counters for one problem type, creating them on
// first use. The returned pointer is stable for the Metrics' lifetime.
func (m *Metrics) Problem(name string) *JobCounters { return m.set(&m.perProblem, name) }

// Tenant returns the counters for one canonical tenant lane, creating
// them on first use. The returned pointer is stable for the Metrics'
// lifetime.
func (m *Metrics) Tenant(name string) *JobCounters { return m.set(&m.perTenant, name) }

func (m *Metrics) set(sets *map[string]*JobCounters, name string) *JobCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	if *sets == nil {
		*sets = map[string]*JobCounters{}
	}
	c := (*sets)[name]
	if c == nil {
		c = &JobCounters{}
		(*sets)[name] = c
	}
	return c
}

// labels snapshots one labelled split, sorted for a stable exposition
// order.
func (m *Metrics) labels(split *map[string]*JobCounters) ([]string, []*JobCounters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sets := *split
	names := make([]string, 0, len(sets))
	for n := range sets {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*JobCounters, len(names))
	for i, n := range names {
		out[i] = sets[n]
	}
	return names, out
}

// move is the one place a job's counters change: it shifts one job of
// the given problem type and tenant from state from to state to in the
// aggregate, problem and tenant sets together. An empty from is
// admission: Submitted rises along with to.
func (m *Metrics) move(problem, tenant string, from, to State) {
	for _, c := range [...]*JobCounters{&m.JobCounters, m.Problem(problem), m.Tenant(tenant)} {
		if from == "" {
			c.Submitted.Add(1)
		} else {
			c.state(from).Add(-1)
		}
		c.state(to).Add(1)
	}
}

// reject counts one backpressure refusal in the aggregate and tenant
// sets.
func (m *Metrics) reject(tenant string, err error) {
	m.Rejected.Add(1)
	m.Tenant(tenant).Rejected.Add(1)
	if errors.Is(err, fairsched.ErrRateLimited) {
		m.RateLimited.Add(1)
	}
}

// observeSolve records a completed solve's latency and iteration count.
func (m *Metrics) observeSolve(d time.Duration, iterations int) {
	m.solveNanos.Add(d.Nanoseconds())
	m.iterations.Add(int64(iterations))
}

// observeQueueWait records one job's submit→dispatch latency under its
// tenant (cache-served jobs observe submit→completion: they leave the
// queue without ever occupying a slot).
func (m *Metrics) observeQueueWait(tenant string, d time.Duration) {
	m.Tenant(tenant).queueWait.observe(d)
}

// jobFamilies are the labelled job counter families, in exposition
// order; each renders as cimserve_<problem|tenant>_jobs_<suffix>, its
// help text ending ", by problem type." or ", by tenant.". Rejections
// are split by tenant only.
var jobFamilies = []struct {
	suffix, kind, help string
	tenantOnly         bool
	v                  func(*JobCounters) *atomic.Int64
}{
	{"submitted_total", "counter", "Jobs accepted into the queue", false, func(c *JobCounters) *atomic.Int64 { return &c.Submitted }},
	{"rejected_total", "counter", "Jobs refused with backpressure", true, func(c *JobCounters) *atomic.Int64 { return &c.Rejected }},
	{"queued", "gauge", "Jobs currently waiting for a solver slot", false, func(c *JobCounters) *atomic.Int64 { return &c.Queued }},
	{"running", "gauge", "Jobs currently occupying a solver slot", false, func(c *JobCounters) *atomic.Int64 { return &c.Running }},
	{"done_total", "counter", "Jobs finished successfully", false, func(c *JobCounters) *atomic.Int64 { return &c.Done }},
	{"failed_total", "counter", "Jobs finished with a solver error", false, func(c *JobCounters) *atomic.Int64 { return &c.Failed }},
	{"canceled_total", "counter", "Jobs canceled while queued or running", false, func(c *JobCounters) *atomic.Int64 { return &c.Canceled }},
}

// expo writes the text exposition, remembering the byte count and the
// first write error (after which it writes nothing more).
type expo struct {
	w   io.Writer
	n   int64
	err error
}

func (e *expo) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	c, err := fmt.Fprintf(e.w, format, args...)
	e.n += int64(c)
	e.err = err
}

// scalar writes one unlabelled family.
func (e *expo) scalar(name, kind, help string, v float64) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, kind, name, formatMetric(v))
}

// family writes one labelled family: HELP and TYPE, then one sample per
// label value. A family with no label values is omitted.
func (e *expo) family(name, kind, help, label string, values []string, v func(i int) float64) {
	if len(values) == 0 {
		return
	}
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for i, lv := range values {
		e.printf("%s{%s=%q} %s\n", name, label, lv, formatMetric(v(i)))
	}
}

// WriteTo emits the Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	e := &expo{w: w}
	secs := float64(m.solveNanos.Load()) / 1e9
	iters := float64(m.iterations.Load())
	ips := 0.0
	if secs > 0 {
		ips = iters / secs
	}
	cacheEntries, cacheBytes := 0, int64(0)
	if m.CacheStats != nil {
		cacheEntries, cacheBytes = m.CacheStats()
	}
	for _, row := range []struct {
		name, kind, help string
		v                float64
	}{
		{"cimserve_jobs_submitted_total", "counter", "Jobs accepted into the queue.", float64(m.Submitted.Load())},
		{"cimserve_jobs_rejected_total", "counter", "Jobs refused with backpressure (queue full, tenant quota or rate limit; HTTP 429).", float64(m.Rejected.Load())},
		{"cimserve_jobs_rate_limited_total", "counter", "Jobs refused by a tenant token-bucket rate limit (a slice of rejected_total).", float64(m.RateLimited.Load())},
		{"cimserve_jobs_queued", "gauge", "Jobs currently waiting for a solver slot.", float64(m.Queued.Load())},
		{"cimserve_jobs_running", "gauge", "Jobs currently occupying a solver slot.", float64(m.Running.Load())},
		{"cimserve_jobs_done_total", "counter", "Jobs finished successfully.", float64(m.Done.Load())},
		{"cimserve_jobs_failed_total", "counter", "Jobs finished with a solver error.", float64(m.Failed.Load())},
		{"cimserve_jobs_canceled_total", "counter", "Jobs canceled while queued or running.", float64(m.Canceled.Load())},
		{"cimserve_checkpoints_written_total", "counter", "Durable solver snapshots written.", float64(m.CheckpointsWritten.Load())},
		{"cimserve_resumes_total", "counter", "Solves continued from an on-disk checkpoint.", float64(m.Resumes.Load())},
		{"cimserve_resume_failures_total", "counter", "Checkpoints rejected as corrupt or mismatched (the job solved fresh).", float64(m.ResumeFailures.Load())},
		{"cimserve_jobs_recovered_total", "counter", "Jobs re-enqueued from the journal at boot.", float64(m.Recovered.Load())},
		{"cimserve_cache_hits_total", "counter", "Jobs answered from the result cache (no solve ran).", float64(m.CacheHits.Load())},
		{"cimserve_cache_misses_total", "counter", "Jobs that led a cacheable solve (populating the cache on success).", float64(m.CacheMisses.Load())},
		{"cimserve_cache_coalesced_total", "counter", "Jobs coalesced onto an identical in-flight solve.", float64(m.CacheCoalesced.Load())},
		{"cimserve_cache_entries", "gauge", "Results currently held by the cache.", float64(cacheEntries)},
		{"cimserve_cache_bytes", "gauge", "Marshalled bytes currently held by the cache.", float64(cacheBytes)},
		{"cimserve_solve_seconds_total", "counter", "Wall-clock seconds spent in completed solves.", secs},
		{"cimserve_solve_iterations_total", "counter", "Annealing iterations performed by completed solves.", iters},
		{"cimserve_solve_iterations_per_second", "gauge", "Aggregate annealing throughput over completed solves.", ips},
	} {
		e.scalar(row.name, row.kind, row.help, row.v)
	}
	tenants, tsets := m.labels(&m.perTenant)
	problems, psets := m.labels(&m.perProblem)
	for _, split := range []struct {
		label, dim string
		names      []string
		sets       []*JobCounters
	}{
		{"problem", "problem type", problems, psets},
		{"tenant", "tenant", tenants, tsets},
	} {
		for _, fam := range jobFamilies {
			if fam.tenantOnly && split.label == "problem" {
				continue
			}
			e.family("cimserve_"+split.label+"_jobs_"+fam.suffix, fam.kind, fam.help+", by "+split.dim+".", split.label, split.names,
				func(i int) float64 { return float64(fam.v(split.sets[i]).Load()) })
		}
	}
	if len(tenants) > 0 {
		e.printf("# HELP cimserve_queue_wait_seconds Submit-to-dispatch latency, by tenant.\n# TYPE cimserve_queue_wait_seconds histogram\n")
		for i, name := range tenants {
			h := &tsets[i].queueWait
			cum := int64(0)
			for b, le := range queueWaitBuckets {
				cum += h.buckets[b].Load()
				e.printf("cimserve_queue_wait_seconds_bucket{tenant=%q,le=%q} %d\n", name, formatMetric(le), cum)
			}
			cum += h.buckets[len(queueWaitBuckets)].Load()
			e.printf("cimserve_queue_wait_seconds_bucket{tenant=%q,le=\"+Inf\"} %d\ncimserve_queue_wait_seconds_sum{tenant=%q} %s\ncimserve_queue_wait_seconds_count{tenant=%q} %d\n",
				name, cum, name, formatMetric(float64(h.sumNanos.Load())/1e9), name, h.count.Load())
		}
	}
	if m.FleetStats != nil {
		fs := m.FleetStats()
		e.scalar("cimserve_fleet_nodes", "gauge", "Worker nodes currently registered with the coordinator.", float64(fs.Nodes))
		e.scalar("cimserve_fleet_jobs_claimable", "gauge", "Offered jobs waiting for a worker to claim them.", float64(fs.Claimable))
		e.scalar("cimserve_fleet_jobs_claimed", "gauge", "Offered jobs currently under a worker lease.", float64(fs.Claimed))
		e.scalar("cimserve_jobs_reassigned_total", "counter", "Leases revoked (expiry, node death or re-registration); the job became claimable again.", float64(fs.Reassigned))
		e.scalar("cimserve_fleet_stale_reports_total", "counter", "Worker calls rejected for naming a claim that no longer stands.", float64(fs.StaleDrops))
		nodes := make([]string, len(fs.PerNode))
		for i, ns := range fs.PerNode {
			nodes[i] = ns.Node
		}
		e.family("cimserve_fleet_node_jobs_claimed", "gauge", "Leases currently held, by node.", "node", nodes, func(i int) float64 { return float64(fs.PerNode[i].Claimed) })
		e.family("cimserve_fleet_node_jobs_completed_total", "counter", "Offers settled, by node.", "node", nodes, func(i int) float64 { return float64(fs.PerNode[i].Completed) })
		e.family("cimserve_fleet_node_jobs_reassigned_total", "counter", "Leases revoked, by node.", "node", nodes, func(i int) float64 { return float64(fs.PerNode[i].Reassigned) })
	}
	return e.n, e.err
}

// formatMetric renders integers without an exponent and floats tersely.
func formatMetric(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

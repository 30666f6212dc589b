package faultinject

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cimsa/internal/fairsched"
	"cimsa/internal/problem"
	"cimsa/internal/rng"
	"cimsa/internal/serve"
)

// OpKind enumerates the faults and probes a schedule can script.
type OpKind int

const (
	// OpSubmit admits one job (or records backpressure).
	OpSubmit OpKind = iota
	// OpCancel cancels a scripted-chosen tracked job, whatever its phase.
	OpCancel
	// OpProgress commands a running job to emit one progress event.
	OpProgress
	// OpComplete commands a running job to succeed.
	OpComplete
	// OpFail commands a running job to return an injected solver error.
	OpFail
	// OpBurst submits past queue capacity and requires backpressure.
	OpBurst
	// OpSubscribe attaches a well-behaved auditing subscriber.
	OpSubscribe
	// OpAbandon attaches a subscriber and immediately unsubscribes.
	OpAbandon
	// OpSlow attaches a subscriber that never reads until the end.
	OpSlow
	// OpClockSweep jumps the clock past the TTL and runs a janitor
	// sweep, asserting exactly the terminal jobs are removed.
	OpClockSweep
	// OpClockJumpBack rewinds the scripted clock and recovers it — the
	// regression an NTP step or VM migration produces — asserting the
	// control plane treats time as monotone throughout.
	OpClockJumpBack
	// OpQuiesce drives to a fixed point and asserts conservation.
	OpQuiesce
	// OpStorm races concurrent submissions against their own cancels.
	OpStorm
	// OpDupSubmit re-submits the identical task of a completed job; with
	// the cache on it must settle as a hit (no solver run).
	OpDupSubmit
)

func (k OpKind) String() string {
	switch k {
	case OpSubmit:
		return "submit"
	case OpCancel:
		return "cancel"
	case OpProgress:
		return "progress"
	case OpComplete:
		return "complete"
	case OpFail:
		return "fail"
	case OpBurst:
		return "burst"
	case OpSubscribe:
		return "subscribe"
	case OpAbandon:
		return "abandon"
	case OpSlow:
		return "slow-subscriber"
	case OpClockSweep:
		return "clock-sweep"
	case OpClockJumpBack:
		return "clock-jump-back"
	case OpQuiesce:
		return "quiesce"
	case OpStorm:
		return "storm"
	case OpDupSubmit:
		return "dup-submit"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one scripted step. Arg deterministically selects the target
// (modulo whatever population exists when the op runs) or sizes the op.
type Op struct {
	Kind OpKind
	Arg  int
}

// Schedule is a fully seeded fault script: the scheduler's dimensions
// and the op sequence all derive from Seed, so a failure replays by
// seed alone.
type Schedule struct {
	Seed   uint64
	Slots  int // MaxConcurrent
	Depth  int // QueueDepth
	Replay int // ReplayBuffer (small, so eviction paths run)
	// Tenants is the identity pool submissions draw from ("" = no
	// X-Tenant header, i.e. the default lane); empty means untenanted
	// traffic. Policies is the fairsched quota/weight table.
	Tenants  []string
	Policies map[string]fairsched.Policy
	// CacheEntries > 0 enables the result cache, making OpDupSubmit
	// exercise the hit path.
	CacheEntries int
	Ops          []Op
}

// GenSchedule expands a seed into a schedule. The op mix is weighted
// toward churn (submit/cancel/progress) with periodic quiesce points so
// conservation is asserted many times mid-run, not just at the end.
func GenSchedule(seed uint64) Schedule {
	r := rng.New(seed)
	sc := Schedule{
		Seed:   seed,
		Slots:  1 + r.Intn(3),
		Depth:  2 + r.Intn(5),
		Replay: 4 + r.Intn(13),
	}
	n := 60 + r.Intn(61)
	for i := 0; i < n; i++ {
		x := r.Intn(100)
		var k OpKind
		switch {
		case x < 26:
			k = OpSubmit
		case x < 38:
			k = OpCancel
		case x < 52:
			k = OpProgress
		case x < 62:
			k = OpComplete
		case x < 68:
			k = OpFail
		case x < 72:
			k = OpBurst
		case x < 78:
			k = OpSubscribe
		case x < 82:
			k = OpAbandon
		case x < 85:
			k = OpSlow
		case x < 88:
			k = OpClockSweep
		case x < 91:
			k = OpClockJumpBack
		case x < 96:
			k = OpQuiesce
		default:
			k = OpStorm
		}
		sc.Ops = append(sc.Ops, Op{Kind: k, Arg: int(r.Uint64() & 0xffff)})
	}
	sc.Ops = append(sc.Ops, Op{Kind: OpQuiesce})
	return sc
}

// GenTenantSchedule expands a seed into a multi-tenant schedule with
// the result cache on: traffic spreads across a pool of tenant
// identities (including the headerless default lane), per-tenant
// weights/quotas/rate limits are active, and duplicate submissions
// exercise the cache-hit path mid-churn. Conservation is then asserted
// per tenant as well as per problem and globally.
func GenTenantSchedule(seed uint64) Schedule {
	r := rng.New(seed)
	sc := Schedule{
		Seed:         seed,
		Slots:        2 + r.Intn(2),
		Depth:        6 + r.Intn(7),
		Replay:       4 + r.Intn(13),
		CacheEntries: 4096, // never evicts within a schedule: dups must hit
		Policies:     map[string]fairsched.Policy{},
	}
	pool := []string{"acme", "batch", "edge", ""}
	sc.Tenants = pool[:2+r.Intn(3)]
	for _, name := range []string{"acme", "batch", "edge"} {
		pol := fairsched.Policy{Weight: 1 + r.Intn(4)}
		switch r.Intn(4) {
		case 0:
			pol.MaxQueued = 2 + r.Intn(4)
		case 1:
			pol.MaxRunning = 1 + r.Intn(2)
		case 2:
			// The scripted clock only moves on sweep ops, so the bucket
			// refills in rare 61s jumps; the burst is what gets spent.
			pol.RatePerSec = 1
			pol.Burst = 10 + r.Intn(30)
		}
		sc.Policies[name] = pol
	}
	n := 70 + r.Intn(51)
	for i := 0; i < n; i++ {
		x := r.Intn(100)
		var k OpKind
		switch {
		case x < 22:
			k = OpSubmit
		case x < 32:
			k = OpDupSubmit
		case x < 42:
			k = OpCancel
		case x < 54:
			k = OpProgress
		case x < 64:
			k = OpComplete
		case x < 69:
			k = OpFail
		case x < 73:
			k = OpBurst
		case x < 78:
			k = OpSubscribe
		case x < 81:
			k = OpAbandon
		case x < 84:
			k = OpClockSweep
		case x < 87:
			k = OpClockJumpBack
		case x < 94:
			k = OpQuiesce
		default:
			k = OpStorm
		}
		sc.Ops = append(sc.Ops, Op{Kind: k, Arg: int(r.Uint64() & 0xffff)})
	}
	sc.Ops = append(sc.Ops, Op{Kind: OpQuiesce})
	return sc
}

// RunSchedule executes a schedule end to end: every op, then the full
// drain/audit/shutdown sweep in Finish.
func RunSchedule(t *testing.T, sc Schedule) {
	t.Helper()
	h := NewHarness(t, sc)
	for i, op := range sc.Ops {
		h.step(i, op)
	}
	h.Finish()
}

// step executes one scripted op.
func (h *Harness) step(i int, op Op) {
	h.t.Helper()
	h.logf("op %d: %s(%d)", i, op.Kind, op.Arg)
	switch op.Kind {
	case OpSubmit:
		h.submit(op.Arg)
	case OpDupSubmit:
		h.dupSubmit(op.Arg)
	case OpCancel:
		if tj := h.pickJob(op.Arg); tj != nil {
			h.cancel(tj)
		}
	case OpProgress:
		if tj := h.pickRunning(op.Arg); tj != nil {
			h.sendCmd(tj, cmdProgress)
		}
	case OpComplete:
		if tj := h.pickRunning(op.Arg); tj != nil {
			h.sendCmd(tj, cmdSucceed)
		}
	case OpFail:
		if tj := h.pickRunning(op.Arg); tj != nil {
			h.sendCmd(tj, cmdFail)
		}
	case OpBurst:
		h.burst()
	case OpSubscribe:
		if tj := h.pickJob(op.Arg); tj != nil {
			h.attachAuditor(tj)
		}
	case OpAbandon:
		if tj := h.pickJob(op.Arg); tj != nil {
			_, _, _, unsub := tj.job.Subscribe()
			unsub()
			h.logf("abandoned subscriber on %s", tj.name)
		}
	case OpSlow:
		if tj := h.pickJob(op.Arg); tj != nil {
			_, _, ch, _ := tj.job.Subscribe()
			h.slows = append(h.slows, slowSub{job: tj, ch: ch})
			h.logf("slow subscriber on %s", tj.name)
		}
	case OpClockSweep:
		h.clockSweep()
	case OpClockJumpBack:
		h.clockJumpBack(op.Arg)
	case OpQuiesce:
		h.Quiesce()
	case OpStorm:
		h.storm(op.Arg)
	default:
		h.fatalf("unknown op kind %v", op.Kind)
	}
}

// pickJob deterministically selects any tracked job (nil when none).
func (h *Harness) pickJob(arg int) *trackedJob {
	if len(h.jobs) == 0 {
		return nil
	}
	return h.jobs[arg%len(h.jobs)]
}

// pickRunning selects a job the harness believes is running. If none
// is running yet but a queued job can legally take a free slot (its
// lane under any MaxRunning cap), a promotion — or a duplicate's
// cached completion — is in flight; wait for it instead of silently
// skipping the scripted command (which would make targeted ops
// timing-dependent).
func (h *Harness) pickRunning(arg int) *trackedJob {
	h.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		h.syncStarted()
		h.settleCached()
		if r := h.running(); len(r) > 0 {
			return r[arg%len(r)]
		}
		_, running := h.countPhases()
		if running >= h.cfg.MaxConcurrent || !h.promotable() {
			return nil
		}
		if time.Now().After(deadline) {
			h.fatalf("queued job never reached a slot for a scripted command")
		}
		select {
		case sj := <-h.solver.started:
			h.noteStarted(sj)
		case <-time.After(50 * time.Millisecond):
			// A cached completion settles without a start signal;
			// re-evaluate.
		}
	}
}

// burst submits until backpressure is proven. Accepted submissions are
// bounded by queue depth plus the slots that can drain concurrently
// (and, with tenancy, by per-tenant quotas that reject even sooner),
// so Slots+Depth+8 attempts must observe at least one rejection.
func (h *Harness) burst() {
	h.t.Helper()
	attempts := h.cfg.MaxConcurrent + h.cfg.QueueDepth + 8
	before := h.rejected
	for i := 0; i < attempts; i++ {
		h.submit(i)
	}
	if h.rejected == before {
		h.fatalf("burst of %d submissions saw no backpressure rejection", attempts)
	}
}

// clockSweep settles terminal states, jumps the scripted clock past the
// result TTL and asserts one sweep removes exactly the terminal,
// not-yet-swept jobs — no live job ever, no terminal job left behind.
func (h *Harness) clockSweep() {
	h.t.Helper()
	h.syncStarted()
	h.waitFinishing()
	// A queued duplicate can finalize asynchronously (a worker pops it
	// and serves the cache hit); settle those before counting terminals
	// or the expected removal count would race.
	h.settleAllCached()
	expected := 0
	for _, tj := range h.jobs {
		if tj.phase == phaseTerminal && !tj.swept {
			expected++
		}
	}
	h.clock.Advance(ttl + time.Second)
	removed := h.sched.Sweep()
	if removed != expected {
		h.fatalf("clock-sweep removed %d jobs, want %d", removed, expected)
	}
	for _, tj := range h.jobs {
		if tj.phase == phaseTerminal {
			tj.swept = true
		}
	}
	h.logf("clock-sweep removed %d", removed)
}

// clockJumpBack rewinds the scripted clock, probes the control plane at
// the rewound instant, then recovers to the original time. The scripted
// clock only ever moves at sweep points, so every unswept terminal job
// finished at the current instant and expires a full TTL in the future:
// a janitor sweep during the rewind must remove nothing. The recovery
// leg is the half that pins the fairsched refill regression — the lane
// cursor used to be rewritten to the rewound time, so the same interval
// minted rate-limiter tokens twice once the clock caught back up; with
// the fix the rewind-and-recover round trip is invisible to every lane,
// and the schedule's later bursts and quotas behave as if it never
// happened.
func (h *Harness) clockJumpBack(arg int) {
	h.t.Helper()
	h.syncStarted()
	h.waitFinishing()
	h.settleAllCached()
	back := time.Duration(1+arg%59) * time.Second
	h.clock.Advance(-back)
	if removed := h.sched.Sweep(); removed != 0 {
		h.fatalf("sweep after %v backwards clock jump removed %d jobs; nothing can have expired in the past", back, removed)
	}
	h.clock.Advance(back)
	h.logf("clock jumped back %v and recovered", back)
}

// storm races a fan-out of concurrent submissions each against its own
// immediate cancel — the adversarial interleaving for the queued-gauge
// accounting (a worker can promote the job before, during or after the
// cancel lands).
func (h *Harness) storm(arg int) {
	h.t.Helper()
	g := 2 + arg%4
	type res struct {
		job      *serve.Job
		rejected bool
		err      error
	}
	names := make([]string, g)
	tasks := make([]problem.Task, g)
	kinds := make([]int, g)
	tenants := make([]string, g)
	for i := range names {
		names[i] = fmt.Sprintf("fi-%04d", h.nextID)
		kinds[i] = h.nextID
		tasks[i] = makeTask(names[i], h.nextID)
		tenants[i] = h.pickTenant(arg + i)
		h.nextID++
	}
	results := make([]res, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := h.sched.Submit(tenants[i], tasks[i], nil)
			switch {
			case err == nil:
				h.sched.Cancel(job.ID)
				results[i] = res{job: job}
			case isRejection(err):
				results[i] = res{rejected: true}
			default:
				results[i] = res{err: err}
			}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		switch {
		case r.err != nil:
			h.fatalf("storm submit %s: unexpected error %v", names[i], r.err)
		case r.rejected:
			h.noteRejected(tenants[i])
		default:
			tj := &trackedJob{name: names[i], problem: tasks[i].Problem(), tenant: r.job.Tenant, kind: kinds[i], job: r.job, phase: phaseFinishing, canceled: true}
			h.jobs = append(h.jobs, tj)
			h.byName[names[i]] = tj
		}
	}
	h.logf("storm fan-out %d", g)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cimsa/internal/fleet"
	"cimsa/internal/heuristics"
	"cimsa/internal/problem"
	"cimsa/internal/serve"
	"cimsa/internal/tour"
	"cimsa/internal/tsplib"
)

// cliLimits are cimserve's default instance-size limits.
var cliLimits = problem.Limits{MaxCities: 200000, MaxVertices: 100000, MaxEdges: 2000000, MaxSpins: 2048}

// CLI defaults of cimserve's fleet roles.
const (
	cliLease = 15 * time.Second
	cliPoll  = 250 * time.Millisecond
)

// phaseTimeout bounds how long a phase waits for its jobs to finish
// after the last one was sent.
const phaseTimeout = 40 * time.Second

// stack is one in-process cimserve fleet built from the constructors
// cmd/cimserve uses: a coordinator with -state-dir and its defaults,
// and in-process workers claiming over loopback HTTP.
type stack struct {
	dir     string
	journal *serve.Journal
	sched   *serve.Scheduler
	httpSrv *http.Server
	served  chan struct{}
	url     string

	coord      *fleet.Coordinator
	stopFleet  context.CancelFunc
	fleetDone  sync.WaitGroup
	workerHTTP []*http.Transport

	tr *serviceTrace // nil when untraced
}

// startStack brings up the coordinator and fleetWorkers workers in dir;
// tr, when not nil, traces them.
func startStack(dir string, tr *serviceTrace) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	journal, _, err := serve.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, journal: journal, tr: tr, served: make(chan struct{})}
	cfg := serve.Config{
		MaxConcurrent:   2,
		QueueDepth:      64,
		ResultTTL:       15 * time.Minute,
		ReplayBuffer:    512,
		CacheEntries:    4096,
		Journal:         journal,
		CheckpointDir:   filepath.Join(dir, "checkpoints"),
		CheckpointEvery: fleetCheckpointEvery,
	}
	const auth = "perfbench-fleet-secret"
	var claimLog fleet.ClaimLog = journal
	if s.tr != nil {
		claimLog = &tracedClaimLog{ClaimLog: journal, tr: s.tr}
	}
	s.coord = fleet.NewCoordinator(fleet.Config{Lease: cliLease, Journal: claimLog, Auth: auth})
	cfg.Fleet = s.coord
	if s.tr != nil {
		cfg.Fleet = &tracedDispatcher{d: s.coord, tr: s.tr}
	}
	s.sched = serve.NewScheduler(cfg)
	srv := serve.NewServer(s.sched)
	srv.Limits = cliLimits
	srv.Fleet = s.coord.Stats
	s.sched.Metrics.FleetStats = s.coord.Stats
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	s.coord.Routes(mux)
	var handler http.Handler = mux
	if s.tr != nil {
		handler = s.tr.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{Handler: handler}
	go func() {
		defer close(s.served)
		_ = s.httpSrv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	if err := s.startFleet(auth); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startFleet runs the coordinator's lease sweeper and the workers, and
// waits until every worker has registered.
func (s *stack) startFleet(auth string) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.stopFleet = cancel
	s.fleetDone.Add(1)
	go func() {
		defer s.fleetDone.Done()
		t := time.NewTicker(cliLease / 4)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.coord.Sweep()
			}
		}
	}()
	for i := 0; i < fleetWorkers; i++ {
		node := "worker-" + strconv.Itoa(i)
		ht := &http.Transport{}
		s.workerHTTP = append(s.workerHTTP, ht)
		var transport fleet.Transport = &fleet.Client{BaseURL: s.url, Auth: auth, HTTPClient: &http.Client{Transport: ht}}
		buildTask := func(source json.RawMessage) (problem.Task, error) {
			var req serve.SubmitRequest
			if err := json.Unmarshal(source, &req); err != nil {
				return nil, fmt.Errorf("parsing job source: %w", err)
			}
			return serve.TaskFor(&req, cliLimits)
		}
		if s.tr != nil {
			tt := &tracedTransport{Transport: transport, tr: s.tr}
			transport = tt
			buildTask = tt.wrapBuild(buildTask)
		}
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Node:           node,
			Transport:      transport,
			BuildTask:      buildTask,
			ScratchDir:     filepath.Join(s.dir, "scratch", node),
			HeartbeatEvery: cliLease / 3,
			PollEvery:      cliPoll,
		})
		if err != nil {
			return err
		}
		s.fleetDone.Add(1)
		go func() {
			defer s.fleetDone.Done()
			_ = w.Run(ctx) // returns ctx.Err() when stopped
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.coord.Stats().Nodes < fleetWorkers {
		if time.Now().After(deadline) {
			return errors.New("fleet workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops the workers, the listener and the scheduler, and waits
// for all of them.
func (s *stack) close() {
	if s.stopFleet != nil {
		s.stopFleet()
		s.fleetDone.Wait()
		for _, ht := range s.workerHTTP {
			ht.CloseIdleConnections()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.httpSrv != nil {
		_ = s.httpSrv.Shutdown(ctx) // a timeout leaves only idle connections
		<-s.served
	}
	if s.sched != nil {
		_ = s.sched.Shutdown(ctx) // on timeout the remaining jobs are cancelled
	}
	s.journal.Close()
}

// jobRun is one request of a phase and what became of it.
type jobRun struct {
	spec              *jobSpec
	sent, acked, done time.Time
	id                string
	err               error
	status            serve.Status
	postSpan          int64
	// repeats is the earlier run whose request this one resubmits.
	repeats *jobRun
}

func (j *jobRun) ok() bool { return j.err == nil && j.status.State == serve.StateDone }

// loadClient is the load generator's HTTP client: at most nproc
// connections to the service.
func loadClient(nproc int) (*http.Client, *http.Transport) {
	t := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	return &http.Client{Transport: t, Timeout: phaseTimeout}, t
}

// drive sends jobs in order in a closed loop: fleetOutstanding client
// slots each send the next job as soon as their previous one is done,
// until measure has passed or the jobs run out. It then waits until every job
// sent is finished, the phase times out, or the run's deadline passes.
func (s *stack) drive(client *http.Client, jobs []jobSpec, measure time.Duration, runDeadline time.Time) []*jobRun {
	start := time.Now()
	deadline := start.Add(measure + phaseTimeout)
	if runDeadline.Before(deadline) {
		deadline = runDeadline
	}
	var (
		mu   sync.Mutex
		runs []*jobRun
		wg   sync.WaitGroup
	)
	// next hands out the jobs in order, so a repeat is sent after the
	// job it repeats.
	next := func() *jobRun {
		mu.Lock()
		defer mu.Unlock()
		if len(runs) == len(jobs) || time.Since(start) >= measure {
			return nil
		}
		i := len(runs)
		jr := &jobRun{spec: &jobs[i]}
		if src := jobs[i].Repeats; src >= 0 {
			jr.repeats = runs[src]
		}
		runs = append(runs, jr)
		return jr
	}
	for range fleetOutstanding {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jr := next(); jr != nil; jr = next() {
				s.submit(client, jr, deadline)
			}
		}()
	}
	wg.Wait()
	return runs
}

func (s *stack) submit(client *http.Client, jr *jobRun, deadline time.Time) {
	jr.sent = time.Now()
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/jobs", bytes.NewReader(jr.spec.Body))
	if err != nil {
		jr.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", jr.spec.Tenant)
	if s.tr != nil {
		jr.postSpan = s.tr.rec.NewID()
		req.Header.Set(spanHeader, strconv.FormatInt(jr.postSpan, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		jr.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jr.acked = time.Now()
	if err != nil {
		jr.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		jr.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		jr.err = fmt.Errorf("submit: decoding status: %w", err)
		return
	}
	jr.id = st.ID
	job, ok := s.sched.Get(st.ID)
	if !ok {
		jr.err = fmt.Errorf("submit: job %s unknown to the scheduler", st.ID)
		return
	}
	select {
	case <-job.Done():
		jr.done = time.Now()
		jr.status = job.Status()
		if jr.status.State != serve.StateDone {
			jr.err = fmt.Errorf("job %s ended %s: %s", st.ID, jr.status.State, jr.status.Error)
		}
	case <-time.After(time.Until(deadline)):
		jr.err = fmt.Errorf("job %s not finished within the phase", st.ID)
	}
}

// resultReport is the part of a result response the checks read.
type resultReport struct {
	serve.Status
	Report json.RawMessage `json:"report"`
}

// checkResults fetches every accepted job's result once over HTTP and
// checks it against the request; a failed check counts against the
// run. It returns each TSP job's tour length ratio to the reference
// solver, computed outside any timed path, for up to maxRatios jobs.
func (s *stack) checkResults(client *http.Client, out *outcome, runs []*jobRun, maxRatios int) []float64 {
	objective := map[*jobRun]float64{}
	var ratios []float64
	for _, jr := range runs {
		if !jr.ok() {
			continue
		}
		rep, err := s.fetchResult(client, jr)
		if err != nil {
			out.fail("job %s: %v", jr.id, err)
			continue
		}
		if err := checkReport(jr.spec, rep); err != nil {
			out.fail("job %s: %v", jr.id, err)
			continue
		}
		objective[jr] = rep.Length
		if jr.spec.Repeats < 0 && len(ratios) < maxRatios {
			in, err := tspInstance(jr.spec.Body)
			if err == nil {
				_, ref := heuristics.Reference(in)
				ratios = append(ratios, ratio(rep.Length, ref))
			}
		}
	}
	// A repeated submission, whether solved, coalesced or served from the
	// cache, must report exactly the original's objective.
	for _, jr := range runs {
		if jr.repeats == nil {
			continue
		}
		a, okA := objective[jr]
		b, okB := objective[jr.repeats]
		if okA && okB && a != b {
			out.fail("job %s repeats job %s but reports objective %v, not %v", jr.id, jr.repeats.id, a, b)
		}
	}
	return ratios
}

func (s *stack) fetchResult(client *http.Client, jr *jobRun) (*resultReport, error) {
	start := time.Now()
	resp, err := client.Get(s.url + "/v1/jobs/" + jr.id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	if s.tr != nil {
		s.tr.rec.Add("http.result", jr.id, 0, start, time.Now())
	}
	var rep resultReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("decoding result: %w", err)
	}
	return &rep, nil
}

func tspInstance(body []byte) (*tsplib.Instance, error) {
	var req struct {
		TSP tspPayload `json:"tsp"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return tsplib.Parse(strings.NewReader(req.TSP.TSPLIB))
}

// checkReport checks one result against its request: the tour must
// visit every uploaded city once and have the reported length.
func checkReport(spec *jobSpec, rep *resultReport) error {
	if rep.State != serve.StateDone {
		return fmt.Errorf("state %s", rep.State)
	}
	in, err := tspInstance(spec.Body)
	if err != nil {
		return fmt.Errorf("re-reading the upload: %w", err)
	}
	var r struct {
		Tour   tour.Tour
		Length float64
	}
	if err := json.Unmarshal(rep.Report, &r); err != nil {
		return fmt.Errorf("decoding tsp report: %w", err)
	}
	if err := r.Tour.Validate(in.N()); err != nil {
		return err
	}
	if got := r.Tour.Length(in); got != r.Length || got != rep.Length {
		return fmt.Errorf("tour length recomputes to %v, report says %v, status %v", got, r.Length, rep.Length)
	}
	return nil
}

// phaseStats are the end-to-end numbers of one phase.
type phaseStats struct {
	ackMS, doneMS       []float64
	solveS              []float64
	cities, citySeconds float64
	completed           int
	window              time.Duration
	waitByTenant        map[string][]float64
	queueMS             []float64
}

// summarize counts failures into out and collects the phase's
// latencies, timed from when each request was sent.
func summarize(out *outcome, runs []*jobRun) phaseStats {
	ps := phaseStats{waitByTenant: map[string][]float64{}}
	var first, last time.Time
	for _, jr := range runs {
		out.attempted++
		if first.IsZero() || jr.sent.Before(first) {
			first = jr.sent
		}
		if !jr.ok() {
			out.fail("%v", jr.err)
			continue
		}
		ps.completed++
		ps.ackMS = append(ps.ackMS, ms(jr.acked.Sub(jr.sent)))
		ps.doneMS = append(ps.doneMS, ms(jr.done.Sub(jr.sent)))
		if jr.done.After(last) {
			last = jr.done
		}
		st := jr.status
		if st.Started != nil {
			wait := ms(st.Started.Sub(st.Submitted))
			ps.queueMS = append(ps.queueMS, wait)
			ps.waitByTenant[st.Tenant] = append(ps.waitByTenant[st.Tenant], wait)
		}
		if !st.Cached && st.Started != nil && st.Finished != nil {
			secs := st.Finished.Sub(*st.Started).Seconds()
			ps.solveS = append(ps.solveS, secs)
			ps.cities += float64(jr.spec.N)
			ps.citySeconds += secs
		}
	}
	ps.window = last.Sub(first)
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// report stores a phase's end-to-end metrics.
func (ps phaseStats) report(out *outcome) {
	out.metrics["ack_ms_p50"] = median(ps.ackMS)
	out.recordTail("ack_ms_tail", ps.ackMS)
	out.metrics["done_ms_p50"] = median(ps.doneMS)
	out.recordTail("done_ms_tail", ps.doneMS)
	out.metrics["jobs_per_s"] = ratio(float64(ps.completed), ps.window.Seconds())
	out.metrics["solve_s_p50"] = median(ps.solveS)
	out.metrics["solve_cities_per_s"] = ratio(ps.cities, ps.citySeconds)
	out.metrics["serve.queue_wait_ms_p50"] = median(ps.queueMS)
	out.recordTail("serve.queue_wait_ms_tail", ps.queueMS)
	lo, hi := 0.0, 0.0
	for _, ws := range ps.waitByTenant {
		m := mean(ws)
		if lo == 0 || m < lo {
			lo = m
		}
		hi = max(hi, m)
	}
	out.metrics["fairsched.wait_ratio"] = ratio(hi, lo)
	out.detail["completed"] = ps.completed
}

// serviceCounters stores the scheduler's and the coordinator's own
// counters.
func serviceCounters(out *outcome, s *stack, solved int) {
	fs := s.coord.Stats()
	out.metrics["fleet.reassigned"] = float64(fs.Reassigned)
	out.metrics["fleet.stale_drops"] = float64(fs.StaleDrops)
	m := &s.sched.Metrics
	out.metrics["serve.rejected"] = float64(m.Rejected.Load())
	out.metrics["checkpoint.writes_per_job"] = ratio(float64(m.CheckpointsWritten.Load()), float64(solved))
	hits, misses, coal := float64(m.CacheHits.Load()), float64(m.CacheMisses.Load()), float64(m.CacheCoalesced.Load())
	out.metrics["rescache.hit_ratio"] = ratio(hits, hits+misses+coal)
	out.metrics["rescache.coalesced"] = coal
}

// setUp builds the workload's inputs and its stack setupRepeats times,
// keeping the last, and reports the median time as setup_s.
func setUp(r *run, out *outcome, gen func() []jobSpec) (*stack, []jobSpec, error) {
	var times []float64
	var s *stack
	var jobs []jobSpec
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		jobs = gen()
		var err error
		s, err = startStack(filepath.Join(r.workDir, "setup-"+strconv.Itoa(i)), nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = median(times)
	return s, jobs, nil
}

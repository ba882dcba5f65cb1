package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/localrt"
	"ursa/internal/remote"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// jobKind is one job shape the load generator submits: a registered
// workload name and its encoded params.
type jobKind struct {
	Label  string `json:"label"` // metric suffix, e.g. "micro", "sql_q1"
	Name   string `json:"workload"`
	Params []byte `json:"-"`
}

// serveConfig shapes a run on the loopback serve-mode cluster.
type serveConfig struct {
	Agents int `json:"agents"`
	// Setups is how many times the cluster is started to measure setup_s;
	// the reported figure is the median start. Half the starts come before
	// the measured phases and half after, so that the median spans the
	// host's state over the whole run.
	Setups int `json:"setups"`
	// Warmup jobs run closed-loop at WarmupWindow before anything is timed.
	Warmup       int `json:"warmup_jobs"`
	WarmupWindow int `json:"warmup_window"`
	// Open-loop phase: OpenReps repetitions of OpenJobs Poisson arrivals at
	// OpenRate jobs/s, each drained before the next starts.
	OpenReps int     `json:"open_reps"`
	OpenJobs int     `json:"open_jobs"`
	OpenRate float64 `json:"open_rate"`
	// Closed-loop phase: Window jobs outstanding for ClosedFor.
	Window    int           `json:"window"`
	ClosedFor time.Duration `json:"closed_for_ns"`
	// Mix is submitted round-robin, in a seeded order per round.
	Mix []jobKind `json:"mix"`
	// Timeout bounds the wait for one job's terminal status.
	Timeout time.Duration `json:"job_timeout_ns"`
}

// jobRun is one front-door submission as the load generator saw it.
type jobRun struct {
	kind  int
	phase string // "warmup", "open", "closed"
	rep   int    // open-phase repetition
	due   time.Time
	sent  time.Time
	ack   time.Time
	id    int64
	err   error // rejection or lost connection
}

// doneSet hands out channels that close once a key is marked done, whether
// the mark lands before or after the wait.
type doneSet[K comparable] struct {
	mu      sync.Mutex
	done    map[K]bool
	waiters map[K]chan struct{}
}

func newDoneSet[K comparable]() *doneSet[K] {
	return &doneSet[K]{done: make(map[K]bool), waiters: make(map[K]chan struct{})}
}

func (d *doneSet[K]) mark(k K) {
	d.mu.Lock()
	d.done[k] = true
	if ch := d.waiters[k]; ch != nil {
		delete(d.waiters, k)
		close(ch)
	}
	d.mu.Unlock()
}

func (d *doneSet[K]) wait(k K) <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ch := d.waiters[k]; ch != nil {
		return ch
	}
	ch := make(chan struct{})
	if d.done[k] {
		close(ch)
	} else {
		d.waiters[k] = ch
	}
	return ch
}

// statusTracker is the client's OnStatus handler: it stamps lifecycle
// updates by wire job ID and wakes any waiter. It runs on the client's read
// goroutine, so it does a few map updates under one lock and never blocks.
type statusTracker struct {
	mu        sync.Mutex
	admitted  map[int64]time.Time
	finished  map[int64]time.Time
	nFinished map[int64]int // StateFinished frames per job: exactly one expected
	cancelled map[int64]bool
	terminal  *doneSet[int64]
}

func newStatusTracker() *statusTracker {
	return &statusTracker{
		admitted:  make(map[int64]time.Time),
		finished:  make(map[int64]time.Time),
		nFinished: make(map[int64]int),
		cancelled: make(map[int64]bool),
		terminal:  newDoneSet[int64](),
	}
}

func (s *statusTracker) onStatus(st wire.JobStatus) {
	now := time.Now()
	s.mu.Lock()
	switch st.State {
	case wire.StateAdmitted:
		s.admitted[st.JobID] = now
	case wire.StateFinished:
		if s.nFinished[st.JobID] == 0 {
			s.finished[st.JobID] = now
		}
		s.nFinished[st.JobID]++
	case wire.StateCancelled:
		s.cancelled[st.JobID] = true
	}
	s.mu.Unlock()
	if st.State == wire.StateFinished || st.State == wire.StateCancelled {
		s.terminal.mark(st.JobID)
	}
}

// serveCluster is one started loopback cluster with its running master and
// connected client.
type serveCluster struct {
	lc     *remote.LocalCluster
	client *remote.Client
	runErr chan error
	dir    string
}

// masterConfig mirrors what `ursa-master -serve -journal-dir DIR` runs with.
func masterConfig(journalDir string) remote.Config {
	return remote.Config{
		Serve:             true,
		JournalDir:        journalDir,
		CoresPerWorker:    2,
		HeartbeatInterval: 100 * time.Millisecond,
		StatsInterval:     time.Second,
		SampleInterval:    eventloop.Duration(50 * time.Millisecond / time.Microsecond),
	}
}

// startCluster starts the master and agents, pre-submits the check jobs
// (before Run, as the batch path requires), runs the master, and connects a
// front-door client. It returns the time spent on everything except the
// check-job submissions.
func startCluster(n int, workDir string, checks []jobKind, onFinished func(*core.Job),
	onStatus func(wire.JobStatus)) (*serveCluster, []*remote.RemoteJob, time.Duration, error) {
	dir, err := os.MkdirTemp(workDir, "journal-")
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	lc, err := remote.StartLocalCluster(n, masterConfig(dir), agent.Config{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, fmt.Errorf("start cluster: %w", err)
	}
	if err := lc.Master.WaitWorkers(context.Background()); err != nil {
		lc.Close()
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	setup := time.Since(t0)

	var jobs []*remote.RemoteJob
	for _, k := range checks {
		rj, err := lc.Master.Submit(k.Name, k.Params)
		if err != nil {
			lc.Close()
			os.RemoveAll(dir)
			return nil, nil, 0, fmt.Errorf("pre-submit %s: %w", k.Label, err)
		}
		jobs = append(jobs, rj)
	}
	lc.Master.Sys.OnJobFinished = onFinished

	t1 := time.Now()
	sc := &serveCluster{lc: lc, runErr: make(chan error, 1), dir: dir}
	go func() { sc.runErr <- lc.Master.Run(context.Background()) }()
	sc.client, err = remote.DialClient(remote.ClientConfig{
		Addr: lc.Master.Addr(), Tenant: "bench", OnStatus: onStatus,
	})
	if err != nil {
		sc.stop()
		return nil, nil, 0, err
	}
	return sc, jobs, setup + time.Since(t1), nil
}

// stop drains the master, waits for Run to return, and tears everything
// down. It reports Run's error, or a timeout.
func (sc *serveCluster) stop() error {
	sc.lc.Master.Drain()
	var err error
	select {
	case err = <-sc.runErr:
	case <-time.After(30 * time.Second):
		err = errors.New("serve master did not drain within 30s")
	}
	if sc.client != nil {
		sc.client.Close()
	}
	sc.lc.Close()
	os.RemoveAll(sc.dir)
	return err
}

// directRows runs a job kind through localrt.LocalRunner on one worker,
// bypassing the scheduler: the reference result and the single-threaded
// baseline time. ordered reports whether the output order is part of the
// result (a query's ORDER BY, applied by Finish).
func directRows(k jobKind) (rows []localrt.Row, d time.Duration, ordered bool, err error) {
	bj, err := workload.Build(k.Name, k.Params)
	if err != nil {
		return nil, 0, false, err
	}
	t0 := time.Now()
	rowsOf, err := localrt.LocalRunner{Workers: 1}.RunPlan(bj.Plan, bj.Inputs)
	if err != nil {
		return nil, 0, false, err
	}
	rows = rowsOf(bj.Output)
	d = time.Since(t0)
	if bj.Finish != nil {
		if rows, err = bj.Finish(rows); err != nil {
			return nil, 0, false, err
		}
	}
	return rows, d, bj.Finish != nil, nil
}

// sameRows compares result rows by their printed forms. Unordered outputs
// (partitions may arrive in any order) are compared as sorted multisets.
func sameRows(got, want []localrt.Row, ordered bool) bool {
	g, w := rowStrings(got), rowStrings(want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	return reflect.DeepEqual(g, w)
}

func rowStrings(rows []localrt.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}

// transportCounters is a snapshot of the master's public data-plane and
// front-door counters, diffed over the measured phase.
type transportCounters struct {
	dispatches, completions int
	wireB, rawB, servedB    float64
	retries, fallbacks      int
	failures                int
	batches, batchedJobs    int
	statusDrops             int
	rttSum                  float64
	rttN                    int
}

func readCounters(m *remote.Master, agents int) transportCounters {
	var c transportCounters
	for id := 0; id < agents; id++ {
		w := m.Transport.Worker(id)
		c.dispatches += w.Dispatches
		c.completions += w.Completions
		if w.RTTEWMA > 0 {
			c.rttSum += w.RTTEWMA
			c.rttN++
		}
	}
	c.wireB, c.rawB = m.Transport.WireBytes(), m.Transport.RawBytes()
	c.servedB, _ = m.Transport.ServedBytes()
	c.retries, c.fallbacks = m.Transport.FetchRetries(), m.Transport.FetchFallbacks()
	c.failures = m.Transport.Failures()
	if ing := m.Ingest(); ing != nil {
		c.batches, c.batchedJobs = ing.BatchStats()
		c.statusDrops = ing.StatusDrops()
	}
	return c
}

func (c transportCounters) minus(b transportCounters) transportCounters {
	return transportCounters{
		dispatches: c.dispatches - b.dispatches, completions: c.completions - b.completions,
		wireB: c.wireB - b.wireB, rawB: c.rawB - b.rawB, servedB: c.servedB - b.servedB,
		retries: c.retries - b.retries, fallbacks: c.fallbacks - b.fallbacks,
		failures: c.failures - b.failures,
		batches:  c.batches - b.batches, batchedJobs: c.batchedJobs - b.batchedJobs,
		statusDrops: c.statusDrops - b.statusDrops,
		rttSum:      c.rttSum, rttN: c.rttN, // RTT is an EWMA: report the end value
	}
}

// loadGen drives one client connection.
type loadGen struct {
	cfg    serveConfig
	client *remote.Client
	trk    *statusTracker
	// status asks the master for a job's state (Client.Status).
	status func(jobID int64) (wire.JobStatus, error)
	order  []int // kind index of the i-th submission
	next   int

	mu   sync.Mutex
	runs []*jobRun
}

func (g *loadGen) nextKind() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	k := g.order[g.next%len(g.order)]
	g.next++
	return k
}

// submit sends one job due at due and records the outcome. It never
// retries: a rejection or a lost connection is a failed job.
func (g *loadGen) submit(phase string, rep, kind int, due time.Time) *jobRun {
	r := &jobRun{kind: kind, phase: phase, rep: rep, due: due}
	k := g.cfg.Mix[kind]
	r.sent = time.Now()
	r.id, r.err = g.client.Submit(k.Name, k.Params)
	r.ack = time.Now()
	g.mu.Lock()
	g.runs = append(g.runs, r)
	g.mu.Unlock()
	return r
}

// awaitDone waits for one acked job's terminal status, or the timeout:
// streamed status is best-effort, so settle reconciles a job whose update
// never came by asking the master.
func (g *loadGen) awaitDone(r *jobRun) {
	if r.err != nil {
		return
	}
	t := time.NewTimer(g.cfg.Timeout)
	defer t.Stop()
	select {
	case <-g.trk.terminal.wait(r.id):
	case <-t.C:
	}
}

// closedLoop keeps window jobs outstanding until the deadline (or, when
// count > 0, until count jobs have been submitted).
func (g *loadGen) closedLoop(phase string, window, count int, deadline time.Time) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	issued := 0
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if (count > 0 && issued >= count) || (count == 0 && !time.Now().Before(deadline)) {
					mu.Unlock()
					return
				}
				issued++
				mu.Unlock()
				g.awaitDone(g.submit(phase, 0, g.nextKind(), time.Now()))
			}
		}()
	}
	wg.Wait()
}

// openLoop sends n jobs at Poisson arrival offsets from start, each from
// its own goroutine so a slow ack never delays the next send. It returns
// once every job is terminal (or timed out).
func (g *loadGen) openLoop(rep int, arrivals []time.Duration, start time.Time) {
	var wg sync.WaitGroup
	for _, off := range arrivals {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		kind := g.nextKind()
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.awaitDone(g.submit("open", rep, kind, due))
		}()
	}
	wg.Wait()
}

// jobTimes is a job's lifecycle, joined from the generator and the tracker.
type jobTimes struct {
	run                        *jobRun
	admitted, finished         time.Time
	haveAdmitted, haveFinished bool
	reconciled                 bool
	// failed: the job did not reach exactly one StateFinished. wrong: it was
	// acked and still did not, which fails the output check.
	failed, wrong bool
	failure       string
}

// ack returns the job's ack time for its spans, and whether it was clamped.
// The SubmitAck frame precedes StateAdmitted on the same FIFO connection, so
// when the submitting goroutine woke after the read loop had already stamped
// StateAdmitted, the ack arrived no later than that stamp. No other stamp is
// adjusted: a StateAdmitted stamp after StateFinished stays out of order and
// fails the traced run's tiling check.
func (j jobTimes) ack() (time.Time, bool) {
	if j.haveAdmitted && j.run.ack.After(j.admitted) {
		return j.admitted, true
	}
	return j.run.ack, false
}

// settle joins every submission with its streamed status and reconciles
// jobs whose terminal update never arrived by querying the master. An
// acked job that ends cancelled, unfinished or unknown to the master is
// wrong; a rejection or a lost connection is only failed.
func (g *loadGen) settle() []jobTimes {
	g.mu.Lock()
	runs := append([]*jobRun(nil), g.runs...)
	g.mu.Unlock()
	out := make([]jobTimes, len(runs))
	for i, r := range runs {
		jt := jobTimes{run: r}
		if r.err != nil {
			jt.failed, jt.failure = true, r.err.Error()
			out[i] = jt
			continue
		}
		g.trk.mu.Lock()
		jt.admitted, jt.haveAdmitted = g.trk.admitted[r.id]
		jt.finished, jt.haveFinished = g.trk.finished[r.id]
		nf := g.trk.nFinished[r.id]
		cancelled := g.trk.cancelled[r.id]
		g.trk.mu.Unlock()
		switch {
		case nf > 1:
			jt.failed, jt.wrong = true, true
			jt.failure = fmt.Sprintf("%d StateFinished updates", nf)
		case cancelled:
			jt.failed, jt.wrong = true, true
			jt.failure = "acked job was cancelled"
		case nf == 0:
			st, err := g.status(r.id)
			switch {
			case err != nil:
				jt.failed, jt.failure = true, err.Error()
			case st.State == wire.StateFinished:
				jt.reconciled = true
			default:
				jt.failed, jt.wrong = true, true
				jt.failure = fmt.Sprintf("acked job in state %d after the timeout", st.State)
			}
		}
		out[i] = jt
	}
	return out
}

// serveOutcome is everything a serve workload run measured.
type serveOutcome struct {
	setups   []float64 // seconds
	jobs     []jobTimes
	checks   []checkResult
	openLate []float64 // ms
	// Closed phase: its start and the dispatches made during it.
	closedStart    time.Time
	closedLaunched int
	measCtr        transportCounters
	allocB         uint64
	measFin        int
	measWall       time.Duration
	spanBuild      time.Duration // time spent assembling spans (traced run)
	// Measured finished jobs without a StateAdmitted stamp, and those whose
	// ack was clamped to it (see jobTimes.ack).
	stampsMissing, ackClamped int
	runErr                    error
}

type checkResult struct {
	kind     jobKind
	ok       bool
	detail   string
	readTime time.Duration
}

// runServe executes one serve-mode workload: setups, the pre-submitted
// output checks, a warmup, then the open and closed phases.
func runServe(cfg serveConfig, seed int64, workDir string, tr *tracer) (*serveOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	out := &serveOutcome{}

	// Setup time: throwaway starts, then the measured cluster; the rest of
	// the throwaway starts follow its shutdown.
	before := (cfg.Setups - 1) / 2
	if err := out.timeSetups(cfg.Agents, before, workDir); err != nil {
		return nil, err
	}

	trk := newStatusTracker()
	checkDone := newDoneSet[*core.Job]()
	checks := distinctKinds(cfg.Mix)
	sc, rjs, d, err := startCluster(cfg.Agents, workDir, checks, checkDone.mark, trk.onStatus)
	if err != nil {
		return nil, err
	}
	out.setups = append(out.setups, d.Seconds())
	for i, rj := range rjs {
		cr := checkResult{kind: checks[i]}
		select {
		case <-checkDone.wait(rj.Live.Core):
		case <-time.After(cfg.Timeout):
			cr.detail = "check job did not finish"
			out.checks = append(out.checks, cr)
			continue
		}
		t0 := time.Now()
		got, err := rj.ResultRows()
		cr.readTime = time.Since(t0)
		want, _, ordered, derr := directRows(checks[i])
		switch {
		case err != nil:
			cr.detail = "result read: " + err.Error()
		case derr != nil:
			cr.detail = "direct run: " + derr.Error()
		case len(got) == 0:
			cr.detail = "no result rows"
		case !sameRows(got, want, ordered):
			cr.detail = fmt.Sprintf("rows differ from direct execution (%d vs %d rows)", len(got), len(want))
		default:
			cr.ok = true
		}
		out.checks = append(out.checks, cr)
	}

	g := &loadGen{cfg: cfg, client: sc.client, trk: trk, status: sc.client.Status,
		order: mixOrder(len(cfg.Mix), rng)}
	if cfg.Warmup > 0 {
		g.closedLoop("warmup", cfg.WarmupWindow, cfg.Warmup, time.Time{})
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ctr0 := readCounters(sc.lc.Master, cfg.Agents)
	measStart := time.Now()
	for rep := 0; rep < cfg.OpenReps; rep++ {
		arrivals := poissonArrivals(cfg.OpenJobs, cfg.OpenRate, rng.ExpFloat64)
		g.openLoop(rep, arrivals, time.Now())
	}
	if cfg.ClosedFor > 0 {
		// Dispatches are counted over exactly ClosedFor, not over the drain
		// of the last window that follows it.
		out.closedStart = time.Now()
		end := out.closedStart.Add(cfg.ClosedFor)
		done := make(chan struct{})
		go func() {
			g.closedLoop("closed", cfg.Window, 0, end)
			close(done)
		}()
		d0 := readCounters(sc.lc.Master, cfg.Agents).dispatches
		time.Sleep(time.Until(end))
		out.closedLaunched = readCounters(sc.lc.Master, cfg.Agents).dispatches - d0
		<-done
	}
	out.measWall = time.Since(measStart)
	out.measCtr = readCounters(sc.lc.Master, cfg.Agents).minus(ctr0)
	runtime.ReadMemStats(&ms1)
	out.allocB = ms1.TotalAlloc - ms0.TotalAlloc

	out.jobs = g.settle()
	var due, sent []time.Time
	for _, j := range out.jobs {
		r := j.run
		if r.phase == "open" {
			due = append(due, r.due)
			sent = append(sent, r.sent)
		}
		if r.phase != "warmup" && j.haveFinished {
			out.measFin++
		}
	}
	t0 := time.Now()
	for _, j := range out.jobs {
		if j.run.phase == "warmup" || !j.haveFinished || j.failed {
			continue
		}
		if !j.haveAdmitted {
			// A dropped StateAdmitted frame: the job has no admission or
			// run span, and stays out of those percentiles.
			out.stampsMissing++
			continue
		}
		ack, clamped := j.ack()
		if clamped {
			out.ackClamped++
		}
		if tr != nil {
			tr.jobSpans(j.run.id, j.run.due, ack, j.admitted, j.finished)
		}
	}
	out.spanBuild = time.Since(t0)
	out.openLate = lateness(due, sent)
	out.runErr = sc.stop()
	if err := out.timeSetups(cfg.Agents, cfg.Setups-1-before, workDir); err != nil {
		return nil, err
	}
	return out, nil
}

// timeSetups starts and stops n throwaway clusters, recording each setup.
func (out *serveOutcome) timeSetups(agents, n int, workDir string) error {
	for i := 0; i < n; i++ {
		sc, _, d, err := startCluster(agents, workDir, nil, nil, nil)
		if err != nil {
			return err
		}
		out.setups = append(out.setups, d.Seconds())
		if err := sc.stop(); err != nil {
			return fmt.Errorf("setup round %d: %w", i, err)
		}
	}
	return nil
}

// distinctKinds returns each kind of the mix once, in mix order.
func distinctKinds(mix []jobKind) []jobKind {
	seen := make(map[string]bool)
	var out []jobKind
	for _, k := range mix {
		if !seen[k.Label] {
			seen[k.Label] = true
			out = append(out, k)
		}
	}
	return out
}

// mixOrder is the submission order of kinds: rounds of every kind once, each
// round in a seeded permutation. 64 rounds repeat cyclically.
func mixOrder(kinds int, rng *rand.Rand) []int {
	var order []int
	for r := 0; r < 64; r++ {
		order = append(order, rng.Perm(kinds)...)
	}
	return order
}

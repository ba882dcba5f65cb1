package remote

import (
	"context"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/live"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// startServeCluster launches a loopback serve-mode cluster and runs the
// master in the background. The returned channel yields Run's error once
// the front door drains.
func startServeCluster(t *testing.T, n int, cfg Config) (*LocalCluster, <-chan error) {
	t.Helper()
	cfg.Serve = true
	lc := startCluster(t, n, cfg)
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()
	return lc, runErr
}

func dialFrontDoor(t *testing.T, lc *LocalCluster, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Addr = lc.Master.Addr()
	c, err := DialClient(cfg)
	if err != nil {
		t.Fatalf("dial front door: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func waitRun(t *testing.T, runErr <-chan error) {
	t.Helper()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("serve run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve master did not drain in time")
	}
}

// statusLog records JobStatus frames per job for assertions.
type statusLog struct {
	mu sync.Mutex
	by map[int64][]wire.JobStatus
}

func newStatusLog() *statusLog { return &statusLog{by: make(map[int64][]wire.JobStatus)} }

func (l *statusLog) add(st wire.JobStatus) {
	l.mu.Lock()
	l.by[st.JobID] = append(l.by[st.JobID], st)
	l.mu.Unlock()
}

// waitState polls until the job reaches the given state or the deadline.
func (l *statusLog) waitState(t *testing.T, jobID int64, state byte) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		for _, st := range l.by[jobID] {
			if st.State == state {
				l.mu.Unlock()
				return st
			}
		}
		l.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %d never reached state %d (have %+v)", jobID, state, l.by[jobID])
	return wire.JobStatus{}
}

// TestFrontDoorSubmitLifecycle submits through the wire front door and
// follows one job from ack to finished status, then drains.
func TestFrontDoorSubmitLifecycle(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{})
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{Tenant: "team-a", OnStatus: log.add})

	_, params := workload.Micro(workload.MicroParams{Rows: 256, MemEstimate: 1})
	jobID, err := c.Submit("micro", params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := log.waitState(t, jobID, wire.StateFinished)
	if !strings.HasPrefix(st.Detail, "jct=") {
		t.Errorf("finished status detail = %q, want jct=...", st.Detail)
	}
	log.waitState(t, jobID, wire.StateAdmitted)

	if got := lc.Master.Ingest().Submissions.Load(); got != 1 {
		t.Errorf("ingest submissions = %d, want 1", got)
	}
	lc.Master.Drain()
	waitRun(t, runErr)
}

// TestFrontDoorCancelQueued cancels a job stuck behind the memory gate and
// expects a terminal cancelled status; the running job is unaffected.
func TestFrontDoorCancelQueued(t *testing.T) {
	// One admission slot: the first job reserves all memory, the second
	// queues behind it.
	lc, runErr := startServeCluster(t, 1, Config{MemPerWorker: 1})
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{OnStatus: log.add})

	_, slow := workload.Micro(workload.MicroParams{Rows: 200000, MemEstimate: 1})
	runningID, err := c.Submit("micro", slow)
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	_, small := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	queuedID, err := c.Submit("micro", small)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if err := c.Cancel(queuedID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	log.waitState(t, queuedID, wire.StateCancelled)
	log.waitState(t, runningID, wire.StateFinished)
	lc.Master.Drain()
	waitRun(t, runErr)
}

// TestFrontDoorDrainRejects verifies that after Drain new submissions are
// terminally rejected and queued jobs are cancelled, while running work
// completes before Run returns.
func TestFrontDoorDrainRejects(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{MemPerWorker: 1})
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{OnStatus: log.add})

	_, slow := workload.Micro(workload.MicroParams{Rows: 200000, MemEstimate: 1})
	if _, err := c.Submit("micro", slow); err != nil {
		t.Fatalf("submit running: %v", err)
	}
	_, small := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	queuedID, err := c.Submit("micro", small)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	lc.Master.Drain()
	log.waitState(t, queuedID, wire.StateCancelled)
	if _, err := c.Submit("micro", small); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("submit during drain: err = %v, want draining rejection", err)
	}
	waitRun(t, runErr)
}

// TestFrontDoorBadWorkloadRejected: a submission for an unknown workload is
// acked with the build error; the connection and the cluster stay healthy.
func TestFrontDoorBadWorkloadRejected(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{})
	c := dialFrontDoor(t, lc, ClientConfig{})

	if _, err := c.Submit("no-such-workload", nil); err == nil {
		t.Fatal("submit of unknown workload succeeded")
	}
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	if _, err := c.Submit("micro", params); err != nil {
		t.Fatalf("submit after rejection: %v", err)
	}
	lc.Master.Drain()
	waitRun(t, runErr)
}

// TestFrontDoorChurn hammers the front door from concurrent clients that
// submit and cancel while the master runs — the admission-churn soak the
// race detector watches.
func TestFrontDoorChurn(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{MemPerWorker: 2})
	const clients, jobsPer = 6, 20
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		tenant := string(rune('a' + i%3))
		wg.Add(1)
		go func(tenant string, seed int) {
			defer wg.Done()
			log := newStatusLog()
			c := dialFrontDoor(t, lc, ClientConfig{Tenant: tenant, OnStatus: log.add})
			for k := 0; k < jobsPer; k++ {
				_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
				id, err := c.Submit("micro", params)
				if err != nil {
					t.Errorf("churn submit: %v", err)
					return
				}
				if (seed+k)%3 == 0 {
					if err := c.Cancel(id); err != nil {
						t.Errorf("churn cancel: %v", err)
						return
					}
				}
			}
		}(tenant, i)
	}
	wg.Wait()
	lc.Master.Drain()
	waitRun(t, runErr)
	if got := lc.Master.Ingest().Submissions.Load(); got != int64(clients*jobsPer) {
		t.Errorf("ingest submissions = %d, want %d", got, clients*jobsPer)
	}
}

// TestFrontDoorStatusDropCounter: a subscriber whose bounded send queue is
// full loses JobStatus frames — counted, not fatal, and the link survives.
func TestFrontDoorStatusDropCounter(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// No reader on b and a 1-frame queue: the first status parks in the
	// queue, later ones must drop.
	conn := wire.NewConnConfig(a, wire.Config{SendQueue: 1})
	defer conn.Close()
	fd := &frontDoor{}
	fe := &feJob{link: &clientLink{conn: conn}, submitID: 1,
		job: &live.Job{Core: &core.Job{ID: 7}}}
	for i := 0; i < 16; i++ {
		fd.sendStatus(fe, wire.StateAdmitted, "")
	}
	if drops := fd.Ingest.StatusDrops(); drops == 0 {
		t.Fatal("no status drops counted with a full 1-frame queue")
	}
	if err := conn.SendErr(); err != nil {
		t.Fatalf("dropping statuses failed the connection: %v", err)
	}
}

// onLoop runs f on the master's control loop and waits for it, so a test
// reads loop-owned state consistently.
func onLoop(lc *LocalCluster, f func()) {
	done := make(chan struct{})
	lc.Master.Sys.Drv.Send(func() {
		f()
		close(done)
	})
	<-done
}

// TestFrontDoorSelfClockedBatching checks that admission is self-clocked: a
// lone submission on an idle master is flushed on arrival as a batch of
// one, and a burst that arrives while the control loop is busy goes through
// in at most two batches — the one already shipped, plus everything that
// piled up on the intake behind it.
func TestFrontDoorSelfClockedBatching(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{})
	ing := lc.Master.Ingest()
	c := dialFrontDoor(t, lc, ClientConfig{Tenant: "burst"})
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})

	batches, jobs := ing.Batches.Load(), ing.BatchedJobs.Load()
	if _, err := c.Submit("micro", params); err != nil {
		t.Fatalf("lone submit: %v", err)
	}
	if got := ing.Batches.Load() - batches; got != 1 {
		t.Errorf("lone submission flushed in %d batches, want 1", got)
	}
	if got := ing.BatchedJobs.Load() - jobs; got != 1 {
		t.Errorf("lone submission's batch carried %d jobs, want 1", got)
	}

	// Park the control loop, so the first batch of the burst waits in the
	// driver inbox while the rest arrives.
	blocked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	lc.Master.Sys.Drv.Send(func() {
		close(blocked)
		<-release
	})
	<-blocked

	const n = 32
	batches, jobs = ing.Batches.Load(), ing.BatchedJobs.Load()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Submit("micro", params); err != nil {
				errs <- err
			}
		}()
	}
	waitFor(t, "the burst to reach the intake", func() bool {
		return lc.Master.fd.queued.Load()+ing.BatchedJobs.Load()-jobs == n
	})
	unblock()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("burst submit: %v", err)
	}
	if got := ing.BatchedJobs.Load() - jobs; got != n {
		t.Errorf("burst batched %d jobs, want %d", got, n)
	}
	if got := ing.Batches.Load() - batches; got < 1 || got > 2 {
		t.Errorf("burst of %d admitted in %d batches, want 1 or 2", n, got)
	}
	lc.Master.Drain()
	waitRun(t, runErr)
}

// TestServedJobsReleased checks that the master lets go of a front-door job
// once it is terminal: the executor keeps only the pre-submitted batch
// job's record, every served job's canonical store is closed (its spill
// file is gone), and a late Complete or fetch naming a released job is
// answered as for a job the master never had. The batch job's rows stay
// readable.
func TestServedJobsReleased(t *testing.T) {
	spill := t.TempDir()
	lc := startCluster(t, 2, Config{Serve: true, ShuffleMemBudget: 1, ShuffleSpillDir: spill})
	name, params := workload.WordCount(workload.WordCountParams{Lines: 2000, InParts: 4, OutParts: 2})
	pre, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatalf("pre-submit: %v", err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{Tenant: "served", OnStatus: log.add})

	const n = 12
	ids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		id, err := c.Submit(name, params)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		log.waitState(t, id, wire.StateFinished)
	}
	waitFor(t, "the pre-submitted job to finish", func() bool {
		var done bool
		onLoop(lc, func() { done = pre.Live.Core.State == core.JobFinished })
		return done
	})

	e := lc.Master.exec
	var preID int64
	dups := lc.Master.Journal.DupCommits.Load()
	onLoop(lc, func() {
		e.mu.Lock()
		if len(e.jobs) != 1 || len(e.byCore) != 1 || e.byCore[pre.Live.Core] == nil {
			t.Errorf("executor holds %d records (%d by core), want only the pre-submitted job's",
				len(e.jobs), len(e.byCore))
		} else {
			preID = e.byCore[pre.Live.Core].wireID
		}
		e.mu.Unlock()
		for key := range e.origins {
			if key.job != preID {
				t.Errorf("routing entry %+v survives for a released job", key)
			}
		}
		for src := range e.contribBytes {
			if src.key.job != preID {
				t.Errorf("contribution size %+v survives for a released job", src)
			}
		}
		// A straggling Complete for a released job is stale, not a commit.
		e.handleComplete(0, wire.Complete{JobID: ids[0], MTID: 0, Seq: 1})
	})
	if got := lc.Master.Journal.DupCommits.Load() - dups; got != 1 {
		t.Errorf("late Complete for a released job: dup commits +%d, want +1", got)
	}
	if rt := lc.Master.resolveJob(ids[0]); rt != nil {
		t.Error("a fetch still resolves a released job's canonical store")
	}
	if got := len(lc.Master.Sys.Jobs()); got != 1 {
		t.Errorf("live system retains %d jobs, want only the pre-submitted one", got)
	}
	var coreJobs int
	onLoop(lc, func() { coreJobs = len(lc.Master.Sys.Core.Jobs()) })
	if coreJobs != 1 {
		t.Errorf("scheduling core retains %d jobs, want only the pre-submitted one", coreJobs)
	}
	files, _ := filepath.Glob(filepath.Join(spill, "ursa-spill-*"))
	if len(files) != 1 {
		t.Errorf("spill files = %v, want exactly the pre-submitted job's (released stores must be closed)", files)
	}

	got, err := pre.ResultRows()
	if err != nil {
		t.Fatalf("pre-submitted job's rows: %v", err)
	}
	if want := directRows(t, name, params); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Errorf("pre-submitted job's rows diverge: got %d want %d", len(got), len(want))
	}
	lc.Master.Drain()
	waitRun(t, runErr)
}

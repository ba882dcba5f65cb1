package remote

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/dag"
	"ursa/internal/live"
	"ursa/internal/localrt"
	"ursa/internal/remote/workload"
	"ursa/internal/resource"
	"ursa/internal/wire"
)

// remoteExecutor implements live.Backend by shipping monotasks to worker
// agents: Start encodes a Dispatch naming the input partitions' holders,
// the agent executes and reports a measured Complete, and handleComplete
// commits the outputs to the master's canonical store and feeds the
// (bytes, seconds) sample into the worker's rate monitor — the §4.2.2
// feedback loop closed over a socket.
//
// Scheduler-facing state (dispatches, origins, sequence counter) is owned
// by the control loop: Start and the abort hooks run on it by the executor
// contract, and completions are relayed onto it through the driver inbox.
// The job-record map is mutex-guarded because the master's shuffle server
// resolves jobs from its own connection goroutines.
type remoteExecutor struct {
	m   *Master
	sys *live.System

	// Loop-owned state.
	seq        uint64
	dispatches map[dispatchKey]*dispatchState
	// origins records which workers hold committed contributions for each
	// produced partition — the §4.3 checkpoint metadata that fetch specs
	// are built from. Input partitions never appear: agents seed those
	// locally from the deterministic builder.
	origins map[originKey][]int
	// contribBytes sizes each worker's committed contribution per partition
	// (encoded blob bytes), so a drain can report how much fetch traffic its
	// migration rerouted to the canonical store.
	contribBytes map[contribSrc]float64
	// fetchRefs counts, per origin worker, the in-flight dispatches whose
	// fetch specs name it as a peer-to-peer holder. A drain completes only
	// once the worker's count reaches zero: until then some agent may still
	// be pulling from its shuffle server, and cutting it loose would turn a
	// graceful drain into fetch fallbacks.
	fetchRefs map[int]int
	// precommits holds commits inherited from the previous generation whose
	// outputs the takeover already pulled into the canonical store: when the
	// scheduler re-places such a monotask, Start completes it immediately
	// from the checkpoint instead of re-dispatching (§4.3 across masters).
	precommits map[dispatchKey]cpstate.CommitState

	mu         sync.Mutex
	pending    []*jobRec // FIFO, consumed in RegisterJob order
	jobs       map[int64]*jobRec
	byCore     map[*core.Job]*jobRec
	nextWireID int64
}

type dispatchKey struct {
	job int64
	mt  int32
}

type originKey struct {
	job  int64
	ds   int32
	part int32
}

type contribSrc struct {
	key    originKey
	worker int
}

type dispatchState struct {
	seq     uint64
	worker  int
	mt      *dag.Monotask
	done    func(bytes, seconds float64)
	release func()
	sentAt  time.Time
	// fetchOrigins are the peer workers this dispatch's fetch specs name —
	// the holds counted in remoteExecutor.fetchRefs.
	fetchOrigins []int
}

// jobRec is the master's record of one submitted workload job. wireID is
// the job's stable wire-level identity — what Prepare/Dispatch frames and
// control-plane events carry. It is decoupled from core.Job.ID (which is a
// dense per-scheduler index) precisely so a takeover master resubmitting
// the backlog keeps every ID the workers and the journal already hold.
// 0 means unassigned; real IDs start at 1.
type jobRec struct {
	wireID int64
	name   string
	params []byte
	built  *workload.BuiltJob
	core   *core.Job
	rt     *localrt.Runtime
	// served marks a front-door job: released (record dropped, canonical
	// store closed) once terminal, because nothing reads a served job's
	// outputs at the master after JobDone. Pre-submitted batch jobs keep
	// their records for Master.Jobs and ResultRows.
	served bool
	// parts lists the produced partitions this job has origins for, so a
	// release can drop its routing entries without scanning every job's.
	// Loop-owned.
	parts []originKey

	// Reservation-correction samples, loop-owned: reserved is the admission
	// reservation stashed at JobAdmitted (the core zeroes its copy before
	// the finished hook), memPeak accumulates the workers' per-monotask
	// memory high-water marks — an aggregate-materialized-working-set proxy
	// for the job's true peak.
	reserved float64
	memPeak  float64
}

func newRemoteExecutor(m *Master, sys *live.System) *remoteExecutor {
	return &remoteExecutor{
		m:   m,
		sys: sys,
		// Sequence numbers are namespaced by generation (gen g starts at
		// (g-1)<<32), so a commit token minted by a dead master can never
		// collide with one minted after takeover — PR 4's at-most-once
		// (jobID, mtID, seq) discipline extended across generations.
		seq:          uint64(m.gen-1) << 32,
		dispatches:   make(map[dispatchKey]*dispatchState),
		origins:      make(map[originKey][]int),
		contribBytes: make(map[contribSrc]float64),
		fetchRefs:    make(map[int]int),
		precommits:   make(map[dispatchKey]cpstate.CommitState),
		jobs:         make(map[int64]*jobRec),
		byCore:       make(map[*core.Job]*jobRec),
	}
}

// setPending stages the workload identity for the RegisterJob callback that
// the imminent SubmitPlan will trigger.
func (e *remoteExecutor) setPending(name string, params []byte, bj *workload.BuiltJob) {
	e.stagePending(&jobRec{name: name, params: params, built: bj})
}

// stagePending appends workload records to the FIFO that RegisterJob pops.
// Callers must stage records in the exact order the matching submissions
// reach the control loop: Master.Submit stages one and submits synchronously
// before Run, and the front door stages a whole batch then ships it in a
// single SubmitBatch closure — both keep staging and submission atomic, so
// the queues can never interleave out of order.
func (e *remoteExecutor) stagePending(recs ...*jobRec) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rec := range recs {
		if rec.wireID == 0 {
			e.nextWireID++
			rec.wireID = e.nextWireID
		} else if rec.wireID > e.nextWireID {
			// Takeover resubmission stages explicit inherited IDs; later fresh
			// submissions must mint above them.
			e.nextWireID = rec.wireID
		}
	}
	e.pending = append(e.pending, recs...)
}

// RegisterJob implements live.Backend: it binds the core job and canonical
// runtime to the staged workload record, and configures the runtime as the
// job's checkpoint store — encode-once codec (checkpointed blobs are served
// to fallback fetches as stored) plus the optional spill budget.
func (e *remoteExecutor) RegisterJob(j *core.Job, rt *localrt.Runtime) {
	rt.SetCodec(workload.Codec{Compress: e.m.cfg.Compress})
	if e.m.cfg.ShuffleMemBudget > 0 {
		rt.SetSpill(e.m.cfg.ShuffleMemBudget, e.m.cfg.ShuffleSpillDir)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pending) == 0 {
		panic("remote: job submitted without a staged workload record (use Master.Submit or the front door, not Sys.Submit)")
	}
	rec := e.pending[0]
	e.pending = e.pending[1:]
	rec.core = j
	rec.rt = rt
	e.jobs[rec.wireID] = rec
	e.byCore[j] = rec
}

// liveJobRecs returns every registered job that has not reached a terminal
// state, ordered by wire ID — the catch-up Prepare set for an elastically
// joined worker. The executor's registry is the one complete index: batch
// jobs and front-door jobs both pass through RegisterJob, while
// Master.jobs only sees the batch path.
func (e *remoteExecutor) liveJobRecs() []*jobRec {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*jobRec, 0, len(e.jobs))
	for _, rec := range e.jobs {
		if rec.core == nil || rec.core.State == core.JobFinished || rec.core.State == core.JobCancelled {
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].wireID < out[j].wireID })
	return out
}

func (e *remoteExecutor) record(jobID int64) *jobRec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.jobs[jobID]
}

func (e *remoteExecutor) recordByCore(j *core.Job) *jobRec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.byCore[j]
}

// release drops a terminal front-door job: its record leaves the registry,
// its fetch routing entries are deleted, and its canonical store (with any
// spill file) is closed. Loop-owned; runs from the master's job-finished
// hook after JobDone went out, so no agent fetches the job's partitions
// again. A late Complete for the job finds no dispatch and is dropped as
// stale, and a fetch naming it gets "unknown job" — exactly the answers
// for a job the master never had. Batch jobs are left alone.
func (e *remoteExecutor) release(j *core.Job) {
	e.mu.Lock()
	rec := e.byCore[j]
	if rec == nil || !rec.served {
		e.mu.Unlock()
		return
	}
	delete(e.byCore, j)
	delete(e.jobs, rec.wireID)
	e.mu.Unlock()
	for _, key := range rec.parts {
		for _, o := range e.origins[key] {
			delete(e.contribBytes, contribSrc{key, o})
		}
		delete(e.origins, key)
	}
	rec.rt.Close()
}

// closeRuntimes releases every job's canonical store (spill files). Called
// from Master.Close after the shuffle server is down.
func (e *remoteExecutor) closeRuntimes() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rec := range e.jobs {
		if rec.rt != nil {
			rec.rt.Close()
		}
	}
}

// Close implements live.Backend: called after the driver exits, it
// broadcasts Shutdown so agents drain and exit cleanly. Graceful close
// flushes the queued frame before the sockets drop.
func (e *remoteExecutor) Close() {
	for _, link := range e.m.workers {
		if link != nil && !link.failed && !link.drained {
			link.conn.Send(wire.Shutdown{})
			link.conn.CloseGraceful()
		}
	}
}

// Start implements core.MonotaskExecutor. Runs on the control loop: it
// records the dispatch under a fresh sequence number (the at-most-once
// commit token), mirrors the in-process executor's core accounting so
// placement sees real occupancy, and ships the Dispatch with one fetch spec
// per input-partition holder.
func (e *remoteExecutor) Start(w *core.Worker, j *core.Job, mt *dag.Monotask, done func(bytes, seconds float64)) (abort func()) {
	e.mu.Lock()
	rec := e.byCore[j]
	e.mu.Unlock()
	if rec == nil {
		panic(fmt.Sprintf("remote: job %d has no workload record", j.ID))
	}
	key := dispatchKey{rec.wireID, int32(mt.ID)}

	// Precommit short-circuit: the previous generation already committed
	// this monotask and the takeover pulled its outputs into the canonical
	// store — complete it from the checkpoint instead of re-executing. The
	// completion is posted (not run inline) so it lands outside the
	// scheduler's placement pass, like any real completion; the worker-
	// measured seconds re-feed the rate monitors as a normal sample.
	if cs, ok := e.precommits[key]; ok {
		delete(e.precommits, key)
		cancelled := false
		bytes, seconds := mt.InputBytes, cs.Seconds
		e.sys.Drv.Loop().Post(func() {
			if cancelled {
				return
			}
			e.m.Journal.Precommits.Add(1)
			done(bytes, seconds)
		})
		return func() { cancelled = true }
	}

	var release func()
	if mt.Kind == resource.CPU {
		w.Machine.Cores.MustAlloc(1)
		w.Machine.Cores.Use(1)
		released := false
		release = func() {
			if released {
				return
			}
			released = true
			w.Machine.Cores.Unuse(1)
			w.Machine.Cores.FreeAlloc(1)
		}
	}

	e.seq++
	st := &dispatchState{
		seq: e.seq, worker: w.ID, mt: mt, done: done, release: release,
		sentAt: time.Now(),
	}
	fetches := e.buildFetches(rec, mt, w.ID)
	for _, sp := range fetches {
		o := int(sp.Origin)
		if sp.Origin < 0 || containsInt(st.fetchOrigins, o) {
			continue
		}
		st.fetchOrigins = append(st.fetchOrigins, o)
		e.fetchRefs[o]++
	}
	e.dispatches[key] = st
	e.m.rec.record(cpstate.Placed{
		JobID: key.job, MTID: key.mt, Worker: int32(w.ID), Seq: st.seq,
	})

	d := wire.Dispatch{JobID: key.job, MTID: key.mt, Seq: st.seq, Fetches: fetches}
	link := e.m.workers[w.ID]
	e.m.Transport.ObserveDispatch(w.ID)
	if link == nil || link.failed || !link.conn.Send(d) {
		// The conn died under us; schedule the failure instead of handling
		// it reentrantly inside the scheduler's placement pass. The abort
		// hook below reclaims this dispatch when FailWorker fires.
		cause := fmt.Errorf("remote: dispatch to worker %d failed", w.ID)
		e.sys.Drv.Loop().Post(func() { e.m.failWorker(w.ID, cause) })
	}

	return func() {
		if e.dispatches[key] != st {
			return
		}
		delete(e.dispatches, key)
		if st.release != nil {
			st.release()
		}
		e.releaseFetchRefs(st)
		// Best-effort: tell the agent to discard the in-flight execution.
		// If the connection is gone the seq check drops the completion.
		if link != nil && !link.failed {
			link.conn.Send(wire.Abort{JobID: key.job, MTID: key.mt, Seq: st.seq})
		}
	}
}

// buildFetches names a holder for every input partition the monotask reads.
// No recorded origin means the partition is a job input (or empty) — the
// agent seeded it locally, nothing to fetch. A dead origin redirects the
// whole partition to the master's canonical store, which holds every
// committed contribution (§4.3); otherwise each surviving origin except the
// executing worker itself serves its own contribution, keeping the hot path
// peer-to-peer.
func (e *remoteExecutor) buildFetches(rec *jobRec, mt *dag.Monotask, workerID int) []wire.FetchSpec {
	var out []wire.FetchSpec
	jobID := rec.wireID
	for _, dp := range localrt.InputParts(rec.rt.Plan(), mt) {
		key := originKey{jobID, int32(dp.Dataset.ID), int32(dp.Part)}
		origins := e.origins[key]
		if len(origins) == 0 {
			continue
		}
		anyDead := false
		for _, o := range origins {
			// Drained counts as dead for routing (its contributions now live
			// only in the canonical store); draining does not — a draining
			// worker keeps serving shuffle peers until its drain completes.
			if w := e.m.workers[o]; w.failed || w.drained {
				anyDead = true
				break
			}
		}
		if anyDead {
			out = append(out, wire.FetchSpec{
				DatasetID: key.ds, Part: key.part, Origin: -1,
				Addr: e.m.shuffleSrv.Addr(),
			})
			continue
		}
		for _, o := range origins {
			if o == workerID {
				continue // the executing agent already holds its own writes
			}
			out = append(out, wire.FetchSpec{
				DatasetID: key.ds, Part: key.part, Origin: int32(o),
				Addr: e.m.workers[o].shuffleAddr,
			})
		}
	}
	return out
}

// handleComplete commits one completion. Runs on the control loop. The
// (key, seq, worker) check makes the commit at-most-once: completions from
// aborted or re-dispatched attempts are dropped, so a monotask's outputs
// enter the checkpoint exactly once and its rate sample is counted once.
func (e *remoteExecutor) handleComplete(workerID int, c wire.Complete) {
	key := dispatchKey{c.JobID, c.MTID}
	st := e.dispatches[key]
	if st == nil || st.seq != c.Seq || st.worker != workerID {
		// Stale: aborted, re-dispatched, duplicate, or minted by a previous
		// generation (seq namespaces never collide across takeovers, so an
		// old master's token can never match a new dispatch).
		e.m.Journal.DupCommits.Add(1)
		return
	}
	delete(e.dispatches, key)
	if st.release != nil {
		st.release()
	}
	e.releaseFetchRefs(st)
	if c.Err != "" {
		e.sys.Fail(fmt.Errorf("remote: worker %d: %v failed: %s", workerID, st.mt, c.Err))
		return
	}
	rec := e.record(c.JobID)
	for _, w := range c.Writes {
		ds := rec.rt.DatasetByID(int(w.DatasetID))
		if ds == nil {
			e.sys.Fail(fmt.Errorf("remote: worker %d wrote unknown dataset %d", workerID, w.DatasetID))
			return
		}
		// Checkpoint at the master (§4.3): completed monotask outputs are
		// durable here even if every producing agent later dies. The blob is
		// stored exactly as the worker encoded it — no decode, no re-encode —
		// so fallback fetches serve byte-identical contributions, and the
		// rows materialize lazily only if the master itself reads them.
		okey := originKey{c.JobID, w.DatasetID, w.Part}
		rec.rt.InsertEncoded(ds, int(w.Part), int(c.MTID), w.Rows, w.Flags, int(w.RawLen))
		if len(e.origins[okey]) == 0 {
			rec.parts = append(rec.parts, okey)
		}
		e.noteOrigin(okey, workerID)
		e.contribBytes[contribSrc{okey, workerID}] += float64(len(w.Rows))
	}
	rec.memPeak += c.MemPeak
	writes := make([]cpstate.CommitWrite, len(c.Writes))
	for i, w := range c.Writes {
		writes[i] = cpstate.CommitWrite{DS: w.DatasetID, Part: w.Part}
	}
	e.m.rec.record(cpstate.Commit{
		JobID: c.JobID, MTID: c.MTID, Worker: int32(workerID), Seq: c.Seq,
		Seconds: c.Seconds, Writes: writes,
	})
	e.m.Transport.ObserveCompletion(workerID, time.Since(st.sentAt).Seconds(), c.FetchedWireBytes, c.FetchedRawBytes)
	e.m.Transport.ObserveFetchDegradation(workerID, int(c.FetchRetries), int(c.FetchFallbacks))
	st.done(st.mt.InputBytes, c.Seconds)
}

func (e *remoteExecutor) noteOrigin(key originKey, workerID int) {
	for _, o := range e.origins[key] {
		if o == workerID {
			return
		}
	}
	e.origins[key] = append(e.origins[key], workerID)
}

// releaseFetchRefs drops a settled dispatch's holds on its fetch origins.
// A draining worker whose last hold just dropped may now complete its
// drain. Loop-owned.
func (e *remoteExecutor) releaseFetchRefs(st *dispatchState) {
	for _, o := range st.fetchOrigins {
		if e.fetchRefs[o]--; e.fetchRefs[o] <= 0 {
			delete(e.fetchRefs, o)
			e.m.maybeFinishDrain(o)
		}
	}
	st.fetchOrigins = nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// migrateOrigins accounts a drained worker's committed contributions: every
// partition listing it as an origin will now route to the canonical store
// (buildFetches sees the drained flag — origin lists are never rewritten,
// mirroring the failure path). Returns the partition count and encoded
// bytes whose serving moved. Loop-owned.
func (e *remoteExecutor) migrateOrigins(workerID int) (parts int, bytes float64) {
	for key, origins := range e.origins {
		for _, o := range origins {
			if o == workerID {
				parts++
				bytes += e.contribBytes[contribSrc{key, workerID}]
				break
			}
		}
	}
	return parts, bytes
}

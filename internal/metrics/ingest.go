package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Ingest aggregates front-door observability for the master's submission
// path: intake and admission counters, status-stream drops, and the
// tenant-fairness gauge. Every field is atomic — client read goroutines
// record submissions and drops off the control loop while the admission
// pump records batches on it. The zero value is ready to use.
type Ingest struct {
	Clients     atomic.Int64 // client connections ever accepted
	Submissions atomic.Int64 // SubmitJob frames accepted (acked with a job ID)
	Rejected    atomic.Int64 // SubmitJob frames rejected (intake full, draining, bad workload)
	Cancels     atomic.Int64 // CancelJob frames that cancelled a queued job
	Batches     atomic.Int64 // admission batches flushed through the scheduler
	BatchedJobs atomic.Int64 // jobs carried by those batches
	Drops       atomic.Int64 // JobStatus frames dropped on full client send queues

	// shareErr is the latest sampled per-tenant share error (see
	// core.ShareError); shareErrMax the worst observed. Both hold
	// math.Float64bits.
	shareErr, shareErrMax atomic.Uint64
}

// ObserveShareError records a sampled per-tenant share error. Samples come
// from the control loop only, so the max needs no compare-and-swap.
func (g *Ingest) ObserveShareError(e float64) {
	g.shareErr.Store(math.Float64bits(e))
	if e > math.Float64frombits(g.shareErrMax.Load()) {
		g.shareErrMax.Store(math.Float64bits(e))
	}
}

// StatusDrops returns the dropped JobStatus frame count.
func (g *Ingest) StatusDrops() int { return int(g.Drops.Load()) }

// BatchStats returns (batches flushed, jobs carried). The mean batch size —
// jobs/batches — is the amortization factor of the batched admission pipe.
func (g *Ingest) BatchStats() (batches, jobs int) {
	return int(g.Batches.Load()), int(g.BatchedJobs.Load())
}

// StatsLine renders a one-line front-door summary for periodic master logs.
func (g *Ingest) StatsLine() string {
	batches, jobs := g.BatchStats()
	meanBatch := 0.0
	if batches > 0 {
		meanBatch = float64(jobs) / float64(batches)
	}
	return fmt.Sprintf(
		"ingest: clients=%d subs=%d rej=%d cancel=%d batches=%d (mean %.1f jobs) status_drops=%d share_err=%.3f (max %.3f)",
		g.Clients.Load(), g.Submissions.Load(), g.Rejected.Load(), g.Cancels.Load(), batches, meanBatch,
		g.Drops.Load(), math.Float64frombits(g.shareErr.Load()), math.Float64frombits(g.shareErrMax.Load()))
}

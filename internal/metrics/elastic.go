package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Elastic aggregates elastic-cluster observability: membership movement
// (joins, drains in progress and completed), the bytes and partitions whose
// fetch routing migrated off drained workers, the reservation corrector's
// learned factors, and whether admission is paused for lack of live
// capacity. Counters and gauges are atomic — the autoscaler ticks on the
// control loop while drain completions land from reader goroutines.
type Elastic struct {
	Live     atomic.Int64 // workers currently able to take work
	Draining atomic.Int64 // drains in progress
	Drained  atomic.Int64 // drains completed (cumulative)
	Joined   atomic.Int64 // mid-run joins (cumulative)

	ScaleUps   atomic.Int64 // autoscaler scale-up decisions
	ScaleDowns atomic.Int64 // autoscaler scale-down decisions

	MigratedParts atomic.Int64 // partitions rerouted to the canonical store by drain
	MigratedBytes atomic.Int64 // committed blob bytes those partitions held

	Paused atomic.Bool // admission paused: no live capacity

	// Corrections counts reservation-correction observations folded in.
	Corrections atomic.Int64

	// mu guards the min/max correction factor currently learned across
	// workloads, which change together.
	mu                   sync.Mutex
	factorMin, factorMax float64
}

// NewElastic returns an empty elastic monitor.
func NewElastic() *Elastic { return &Elastic{factorMin: 1, factorMax: 1} }

// SetFactorRange records the correction factors the reservation corrector
// now holds, spanning [min, max] across workloads.
func (e *Elastic) SetFactorRange(min, max float64) {
	e.mu.Lock()
	e.factorMin, e.factorMax = min, max
	e.mu.Unlock()
}

// StatsLine renders a one-line elastic summary for periodic master logs;
// failed is the cumulative worker-failure count.
func (e *Elastic) StatsLine(failed int) string {
	e.mu.Lock()
	factorMin, factorMax := e.factorMin, e.factorMax
	e.mu.Unlock()
	paused := 0
	if e.Paused.Load() {
		paused = 1
	}
	return fmt.Sprintf(
		"elastic: live=%d draining=%d drained=%d joined=%d failed=%d scale_up=%d scale_down=%d migrated=%d parts (%d B) paused=%d corr=%d factor=[%.2f,%.2f]",
		e.Live.Load(), e.Draining.Load(), e.Drained.Load(), e.Joined.Load(), failed,
		e.ScaleUps.Load(), e.ScaleDowns.Load(), e.MigratedParts.Load(), e.MigratedBytes.Load(),
		paused, e.Corrections.Load(), factorMin, factorMax)
}

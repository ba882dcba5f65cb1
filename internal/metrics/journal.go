package metrics

import (
	"fmt"
	"sync/atomic"
)

// Journal aggregates control-plane journaling and failover observability:
// event append/replay counters, snapshot cadence, the unsynced journal
// depth, and the at-most-once guard counters that the commit discipline
// extends across generations. Every field is atomic — events are recorded
// from handshake goroutines and the control loop alike. The zero value is
// ready to use.
type Journal struct {
	Events        atomic.Int64 // events applied to the live state machine
	Appended      atomic.Int64 // events appended to the on-disk journal
	ReplayEvents  atomic.Int64 // events replayed at open (takeover)
	ReplayBytes   atomic.Int64 // snapshot + event bytes replayed at open
	Snapshots     atomic.Int64 // snapshots taken
	PendingDepth  atomic.Int64 // latest observed unsynced journal bytes
	DupCommits    atomic.Int64 // Complete frames rejected by the at-most-once guard
	Precommits    atomic.Int64 // monotasks short-circuited from replayed commits
	Reattaches    atomic.Int64 // workers re-attached under a new generation
	NotFoundReads atomic.Int64 // JobQuery answered with StateNotFound
}

// StatsLine renders a one-line journaling summary for periodic master logs;
// gen is the master generation in force.
func (g *Journal) StatsLine(gen int64) string {
	return fmt.Sprintf(
		"journal: gen=%d events=%d appended=%d replayed=%d (%d B) snaps=%d depth=%dB dup_commits=%d precommits=%d reattach=%d not_found=%d",
		gen, g.Events.Load(), g.Appended.Load(), g.ReplayEvents.Load(), g.ReplayBytes.Load(),
		g.Snapshots.Load(), g.PendingDepth.Load(), g.DupCommits.Load(), g.Precommits.Load(),
		g.Reattaches.Load(), g.NotFoundReads.Load())
}

package metrics

import (
	"testing"
	"time"
)

// TestStatsLines pins the four periodic master log lines byte-for-byte: a
// fixed sequence of observations must render exactly these strings, so a
// change to how the monitors store their counters cannot silently change
// what operators (and log scrapers) read.
func TestStatsLines(t *testing.T) {
	t0 := time.Unix(1000, 0)
	now := t0.Add(4 * time.Second)

	tr := NewTransport()
	tr.ObserveRegister(0, t0)
	tr.ObserveRegister(1, t0)
	tr.ObserveDispatch(2) // counters before registration: renders as new
	tr.ObserveHeartbeat(0, t0.Add(2500*time.Millisecond))
	tr.ObserveHeartbeat(1, t0.Add(time.Second))
	for _, d := range []struct {
		id        int
		rtt       float64
		wire, raw float64
	}{{0, 0.010, 1.5e6, 2e6}, {1, 0.020, 250000, 250000}, {0, 0.005, 0, 0}} {
		tr.ObserveDispatch(d.id)
		tr.ObserveCompletion(d.id, d.rtt, d.wire, d.raw)
	}
	tr.ObserveDispatch(1)
	tr.ObserveFetchDegradation(0, 3, 1)
	tr.ObserveFetchDegradation(1, 2, 0)
	tr.ServedWire.Add(3e6)
	tr.ServedRaw.Add(4.5e6)
	tr.ObserveFailure(1)

	var in Ingest
	in.Clients.Add(1)
	in.Clients.Add(1)
	for i := 0; i < 3; i++ {
		in.Submissions.Add(1)
	}
	in.Rejected.Add(1)
	in.Cancels.Add(1)
	in.Batches.Add(1)
	in.BatchedJobs.Add(2)
	in.Batches.Add(1)
	in.BatchedJobs.Add(1)
	in.Drops.Add(1)
	in.Drops.Add(1)
	in.ObserveShareError(0.25)
	in.ObserveShareError(0.125)

	var jm Journal
	jm.Events.Add(1)
	jm.Appended.Add(1)
	jm.Events.Add(1)
	jm.Appended.Add(1)
	jm.Events.Add(1)
	jm.ReplayEvents.Add(5)
	jm.ReplayBytes.Add(1234)
	jm.Snapshots.Add(1)
	jm.PendingDepth.Store(4096)
	jm.PendingDepth.Store(512)
	jm.DupCommits.Add(1)
	jm.Precommits.Add(1)
	jm.Precommits.Add(1)
	jm.Reattaches.Add(1)
	jm.NotFoundReads.Add(1)

	el := NewElastic()
	el.Joined.Add(1)
	el.Drained.Add(1)
	el.MigratedParts.Add(3)
	el.MigratedBytes.Add(4096)
	el.ScaleUps.Add(1)
	el.ScaleUps.Add(1)
	el.ScaleDowns.Add(1)
	el.Paused.Store(true)
	el.Corrections.Add(1)
	el.SetFactorRange(0.9, 1.2)
	el.Corrections.Add(1)
	el.SetFactorRange(0.8, 1.5)
	el.Live.Store(2)
	el.Draining.Store(1)

	for _, c := range []struct{ got, want string }{
		{tr.StatsLine(now),
			"transport: workers=2/3 hb_age[w0=1.5s w1=dead w2=new] rtt=10.6ms wire=1.75MB raw=2.25MB served=3.00MB disp=5 comp=3 fail=1 retry=5 fallback=1"},
		{in.StatsLine(),
			"ingest: clients=2 subs=3 rej=1 cancel=1 batches=2 (mean 1.5 jobs) status_drops=2 share_err=0.125 (max 0.250)"},
		{jm.StatsLine(2),
			"journal: gen=2 events=3 appended=2 replayed=5 (1234 B) snaps=1 depth=512B dup_commits=1 precommits=2 reattach=1 not_found=1"},
		{el.StatsLine(tr.Failures()),
			"elastic: live=2 draining=1 drained=1 joined=1 failed=1 scale_up=2 scale_down=1 migrated=3 parts (4096 B) paused=1 corr=2 factor=[0.80,1.50]"},
	} {
		if c.got != c.want {
			t.Errorf("stats line changed:\n got %q\nwant %q", c.got, c.want)
		}
	}
}

package main

import (
	"errors"
	"strings"
	"testing"

	"ursa/internal/wire"
)

// TestSettleFailsLostAckedJobs drops acked jobs in every way the front door
// could and checks that each one fails the output check, while a rejection
// or a lost connection is only counted.
func TestSettleFailsLostAckedJobs(t *testing.T) {
	trk := newStatusTracker()
	trk.onStatus(wire.JobStatus{JobID: 1, State: wire.StateFinished})
	trk.onStatus(wire.JobStatus{JobID: 2, State: wire.StateFinished})
	trk.onStatus(wire.JobStatus{JobID: 2, State: wire.StateFinished}) // duplicate
	trk.onStatus(wire.JobStatus{JobID: 3, State: wire.StateCancelled})
	// Jobs 4–7 get no streamed terminal update; the master answers for them.
	master := map[int64]byte{
		4: wire.StateFinished, // update dropped, job finished: reconciled
		5: wire.StateQueued,   // dropped job
		6: wire.StateNotFound, // lost job
	}
	g := &loadGen{trk: trk, status: func(id int64) (wire.JobStatus, error) {
		st, ok := master[id]
		if !ok {
			return wire.JobStatus{}, errors.New("front door connection lost") // job 7
		}
		return wire.JobStatus{JobID: id, State: st}, nil
	}}
	for id := int64(1); id <= 7; id++ {
		g.runs = append(g.runs, &jobRun{id: id, phase: "closed"})
	}
	g.runs = append(g.runs, &jobRun{phase: "closed", err: errors.New("remote: submission rejected: full")})

	rep := newReport()
	reconciled := tally(rep, g.settle())
	if rep.res.Attempted != 8 || rep.res.Failed != 6 || reconciled != 1 {
		t.Errorf("attempted %d failed %d reconciled %d; want 8, 6, 1",
			rep.res.Attempted, rep.res.Failed, reconciled)
	}
	if len(rep.problems) != 4 {
		t.Fatalf("problems %q; want one each for jobs 2, 3, 5 and 6", rep.problems)
	}
	for i, id := range []string{"job 2:", "job 3:", "job 5:", "job 6:"} {
		if !strings.HasPrefix(rep.problems[i], id) {
			t.Errorf("problem %d is %q, want it about %s", i, rep.problems[i], id)
		}
	}
}

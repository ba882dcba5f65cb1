package main

import (
	"math"
	"testing"
	"time"
)

func at(msOff float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(msOff * float64(time.Millisecond)))
}

func TestTileSelfTimes(t *testing.T) {
	tr := &tracer{}
	tr.jobSpans(1, at(0), at(3), at(4), at(20))
	tr.jobSpans(2, at(100), at(102), at(102), at(110))
	n, self, err := tile(tr.spans)
	if err != nil || n != 2 {
		t.Fatalf("tile = %d, %v; want 2 jobs, no error", n, err)
	}
	want := map[string]float64{"job": 0, "submit": 5, "admission": 1, "run": 24}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

func TestCheckTilingRejects(t *testing.T) {
	cases := map[string][]span{
		"gap": {
			{ID: 1, Name: "job", Start: at(0), End: at(10)},
			{ID: 1, Name: "submit", Parent: "job", Start: at(0), End: at(4)},
			{ID: 1, Name: "run", Parent: "job", Start: at(5), End: at(10)},
		},
		"short": {
			{ID: 1, Name: "job", Start: at(0), End: at(10)},
			{ID: 1, Name: "submit", Parent: "job", Start: at(0), End: at(9)},
		},
		"backwards": {
			{ID: 1, Name: "job", Start: at(0), End: at(10)},
			{ID: 1, Name: "submit", Parent: "job", Start: at(0), End: at(12)},
			{ID: 1, Name: "run", Parent: "job", Start: at(12), End: at(10)},
		},
		"childless": {
			{ID: 1, Name: "job", Start: at(0), End: at(10)},
		},
	}
	for name, spans := range cases {
		if _, _, err := tile(spans); err == nil {
			t.Errorf("%s: tile accepted a broken tree", name)
		}
	}
}

func TestJobAckClamp(t *testing.T) {
	// The submitter woke after the read loop stamped StateAdmitted: the ack
	// is clamped to the admitted stamp, so the spans still tile.
	j := jobTimes{
		run:      &jobRun{due: at(0), ack: at(5)},
		admitted: at(4), haveAdmitted: true,
		finished: at(9), haveFinished: true,
	}
	ack, clamped := j.ack()
	if !ack.Equal(at(4)) || !clamped {
		t.Errorf("ack = %v, %v; want %v, clamped", ack, clamped, at(4))
	}
	tr := &tracer{}
	tr.jobSpans(1, j.run.due, ack, j.admitted, j.finished)
	if _, _, err := tile(tr.spans); err != nil {
		t.Errorf("clamped job does not tile: %v", err)
	}
	j.run.ack = at(2)
	if ack, clamped := j.ack(); !ack.Equal(at(2)) || clamped {
		t.Errorf("ack = %v, %v; want the raw %v", ack, clamped, at(2))
	}
}

func TestTileRejectsAdmittedAfterFinished(t *testing.T) {
	// StateAdmitted stamped after StateFinished is not adjusted: the run
	// span runs backwards and the tree fails the check.
	j := jobTimes{
		run:      &jobRun{due: at(0), ack: at(2)},
		admitted: at(12), haveAdmitted: true,
		finished: at(9), haveFinished: true,
	}
	ack, _ := j.ack()
	tr := &tracer{}
	tr.jobSpans(1, j.run.due, ack, j.admitted, j.finished)
	if _, _, err := tile(tr.spans); err == nil {
		t.Errorf("tile accepted a job admitted after it finished")
	}
}

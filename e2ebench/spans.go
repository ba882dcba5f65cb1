package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one traced interval. Spans of one job share ID, the job's wire ID;
// Parent names the enclosing span ("" for a job's root).
type span struct {
	ID     int64     `json:"id"`
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory for the length of a run; they are written out
// once, after the measured phase. The untraced run has none.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// jobSpans records a front-door job's tree: the root "job" span from due
// time to StateFinished, tiled by its children "submit" (due → SubmitAck),
// "admission" (ack → StateAdmitted) and "run" (StateAdmitted →
// StateFinished).
func (t *tracer) jobSpans(id int64, due, ack, admitted, finished time.Time) {
	t.add(span{ID: id, Name: "job", Start: due, End: finished})
	t.add(span{ID: id, Name: "submit", Parent: "job", Start: due, End: ack})
	t.add(span{ID: id, Name: "admission", Parent: "job", Start: ack, End: admitted})
	t.add(span{ID: id, Name: "run", Parent: "job", Start: admitted, End: finished})
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tile checks, for every root span, that its children are ordered,
// non-overlapping, contiguous and together span it exactly: the root starts
// where the first child starts, ends where the last ends, and each child
// starts where the previous one ended. The children are built from measured
// stamps, so a stamp out of order fails the check. tile also sums self time
// per span name in milliseconds: a child's is its duration, a root's is its
// duration minus its children's. It returns the number of roots checked and
// the first violation.
func tile(spans []span) (int, map[string]float64, error) {
	kids := make(map[int64][]span)
	var roots []span
	for _, s := range spans {
		if s.Parent == "" {
			roots = append(roots, s)
		} else {
			kids[s.ID] = append(kids[s.ID], s)
		}
	}
	self := make(map[string]float64)
	for _, root := range roots {
		ks := kids[root.ID]
		if len(ks) == 0 {
			return len(roots), self, fmt.Errorf("job %d: root span has no children", root.ID)
		}
		var sum time.Duration
		at := root.Start
		for _, k := range ks {
			if k.End.Before(k.Start) {
				return len(roots), self, fmt.Errorf("job %d: span %s ends before it starts", root.ID, k.Name)
			}
			if !k.Start.Equal(at) {
				return len(roots), self, fmt.Errorf("job %d: span %s starts at %v, want %v", root.ID, k.Name, k.Start, at)
			}
			at = k.End
			sum += k.dur()
			self[k.Name] += ms(k.dur())
		}
		if !at.Equal(root.End) || sum != root.dur() {
			return len(roots), self, fmt.Errorf("job %d: children sum to %v, root is %v", root.ID, sum, root.dur())
		}
		self[root.Name] += ms(root.dur() - sum)
	}
	return len(roots), self, nil
}

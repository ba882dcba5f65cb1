package core

import (
	"fmt"
	"math"
	"testing"

	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// slotMem is one admission slot: a quarter of a test machine's memory, so a
// cluster of M machines admits exactly 4M fairJobs.
const slotMem = float64(2 * resource.GB)

// fairJob is a tiny job used to fill tenant queues; its graph is irrelevant
// to admission, only MemEstimate matters.
func fairJob(sys *System, tenant string, mem float64) *Job {
	g := shuffleJob(2, 1, 1e6)
	plan, err := g.Build()
	if err != nil {
		panic(err)
	}
	return sys.SubmitPlanNow(JobSpec{
		Name: "fair", Tenant: tenant, Graph: g, MemEstimate: mem,
	}, plan)
}

// reservedByTenant flattens TenantShares into a name→reserved map.
func reservedByTenant(shares []TenantShare) map[string]float64 {
	out := make(map[string]float64, len(shares))
	for _, ts := range shares {
		out[ts.Tenant] = ts.Reserved
	}
	return out
}

// TestWeightedFairAdmission drives one batched admission pass over deep
// per-tenant backlogs and checks the reservation split lands on the weighted
// fair point. Every tenant submits more jobs than the cluster can admit, so
// demand is unbounded and the split isolates pickTenant. When the weighted
// split is exactly representable in admission slots the share error must be
// ~0; otherwise it is bounded by one slot's share (the quantization floor).
func TestWeightedFairAdmission(t *testing.T) {
	const estimate = slotMem // machines hold 8 GB → 4 slots each
	cases := []struct {
		name     string
		machines int // slots = machines * 4
		weights  map[string]float64
		tenants  []string
		// wantSlots is the expected reservation in slots per tenant; nil
		// means only the quantization bound is checked.
		wantSlots map[string]float64
	}{
		{
			name:     "one-heavy-three-light",
			machines: 3, // 12 slots: 3:1:1:1 → 6+2+2+2, exactly representable
			weights:  map[string]float64{"heavy": 3, "light-0": 1, "light-1": 1, "light-2": 1},
			tenants:  []string{"heavy", "light-0", "light-1", "light-2"},
			wantSlots: map[string]float64{
				"heavy": 6, "light-0": 2, "light-1": 2, "light-2": 2,
			},
		},
		{
			name:      "equal-pair",
			machines:  1, // 4 slots
			weights:   map[string]float64{"a": 1, "b": 1},
			tenants:   []string{"a", "b"},
			wantSlots: map[string]float64{"a": 2, "b": 2},
		},
		{
			name:     "one-heavy-five-light",
			machines: 5, // 20 slots: 5:1×5 → 10+2×5
			weights:  map[string]float64{"heavy": 5, "l0": 1, "l1": 1, "l2": 1, "l3": 1, "l4": 1},
			tenants:  []string{"heavy", "l0", "l1", "l2", "l3", "l4"},
			wantSlots: map[string]float64{
				"heavy": 10, "l0": 2, "l1": 2, "l2": 2, "l3": 2, "l4": 2,
			},
		},
		{
			name:      "unlisted-tenant-defaults-to-weight-one",
			machines:  3, // 12 slots: a:2 vs unlisted b:1 → 8+4
			weights:   map[string]float64{"a": 2},
			tenants:   []string{"a", "b"},
			wantSlots: map[string]float64{"a": 8, "b": 4},
		},
		{
			name:     "non-representable-split",
			machines: 2, // 8 slots: 2:1 → ideal 5.33/2.67, within one slot
			weights:  map[string]float64{"a": 2, "b": 1},
			tenants:  []string{"a", "b"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loop, clus := testCluster(tc.machines)
			sys := NewSystem(loop, clus, Config{Policy: SRJF, TenantWeights: tc.weights})
			slots := tc.machines * 4
			// Deep backlog per tenant: more than the whole cluster admits.
			for i := 0; i < slots+4; i++ {
				for _, tenant := range tc.tenants {
					fairJob(sys, tenant, estimate)
				}
			}
			sys.FlushAdmission()

			shares := sys.Sched.TenantShares()
			if tc.wantSlots != nil {
				got := reservedByTenant(shares)
				for tenant, want := range tc.wantSlots {
					if math.Abs(got[tenant]-want*estimate) > 1 {
						t.Errorf("tenant %s reserved %.0f slots, want %.0f",
							tenant, got[tenant]/estimate, want)
					}
				}
				if err := ShareError(shares); err > 1e-9 {
					t.Errorf("share error = %v, want 0 for an exactly representable mix", err)
				}
			}
			// Quantization bound in every case: the worst tenant sits within
			// one admission slot of its weighted fair share.
			bound := 1/float64(slots) + 1e-9
			if err := ShareError(shares); err > bound {
				t.Errorf("share error = %v, want <= one slot share %v", err, bound)
			}
			if got := sys.Sched.AdmittedCount(); got != slots {
				t.Errorf("admitted %d jobs, want %d (every slot filled)", got, slots)
			}
		})
	}
}

// TestShareErrorMath pins the metric itself: non-demanding tenants are
// excluded, empty reservations yield zero, and a known split produces the
// hand-computed error.
func TestShareErrorMath(t *testing.T) {
	cases := []struct {
		name   string
		shares []TenantShare
		want   float64
	}{
		{name: "empty", shares: nil, want: 0},
		{
			name: "nothing-reserved-nobody-waiting",
			shares: []TenantShare{
				{Tenant: "a", Weight: 1}, {Tenant: "b", Weight: 1},
			},
			want: 0,
		},
		{
			name: "exact-split-is-zero",
			shares: []TenantShare{
				{Tenant: "a", Weight: 3, Reserved: 6, Queued: 1},
				{Tenant: "b", Weight: 1, Reserved: 2, Queued: 1},
			},
			want: 0,
		},
		{
			// a holds everything but b demands half: error = |1 − 1/2| = 1/2.
			name: "starved-demanding-tenant",
			shares: []TenantShare{
				{Tenant: "a", Weight: 1, Reserved: 8, Queued: 0},
				{Tenant: "b", Weight: 1, Reserved: 0, Queued: 5},
			},
			want: 0.5,
		},
		{
			// An idle tenant with a huge weight is not demanding and must not
			// distort the error of the two active ones.
			name: "idle-tenant-excluded",
			shares: []TenantShare{
				{Tenant: "idle", Weight: 100},
				{Tenant: "a", Weight: 1, Reserved: 4, Queued: 1},
				{Tenant: "b", Weight: 1, Reserved: 4, Queued: 1},
			},
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ShareError(tc.shares); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("ShareError = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFairShareUnderRecycling runs jobs to completion so admission slots
// recycle, sampling the share error while all tenants still have backlog:
// each finish frees a slot and the immediate re-admission must hand it to
// the most underserved tenant, keeping the error at the quantization floor.
func TestFairShareUnderRecycling(t *testing.T) {
	loop, clus := testCluster(3) // 12 slots at 2 GB per job
	weights := map[string]float64{"heavy": 3, "light-0": 1, "light-1": 1, "light-2": 1}
	sys := NewSystem(loop, clus, Config{Policy: SRJF, TenantWeights: weights})
	for i := 0; i < 30; i++ {
		for tenant := range weights {
			fairJob(sys, tenant, slotMem)
		}
	}
	sys.FlushAdmission()
	for _, at := range []eventloop.Duration{2, 5, 10} {
		loop.RunUntil(eventloop.Time(at * eventloop.Second))
		shares := sys.Sched.TenantShares()
		backlogged := true
		for _, ts := range shares {
			if ts.Queued == 0 {
				backlogged = false
			}
		}
		if !backlogged {
			continue // demand exhausted; the split is no longer constrained
		}
		if err := ShareError(shares); err > 1.0/12+1e-9 {
			t.Errorf("t=%ds: share error %v above quantization floor %v", at, err, 1.0/12)
		}
	}
	loop.Run()
	if !sys.AllDone() {
		t.Fatal("jobs incomplete")
	}
}

// TestAdmissionChurn storms the scheduler with interleaved batched submits,
// flushes, and cancellations across three tenants, then checks the system
// drains clean: every job terminal, no queue residue, no leaked reservation.
func TestAdmissionChurn(t *testing.T) {
	loop, clus := testCluster(1) // 4 slots at 2 GB per job
	sys := NewSystem(loop, clus, Config{
		Policy:        SRJF,
		TenantWeights: map[string]float64{"t0": 2, "t1": 1, "t2": 1},
	})
	const n = 150
	var jobs []*Job
	for i := 0; i < n; i++ {
		i := i
		at := eventloop.Time(i) * eventloop.Time(10*eventloop.Millisecond)
		loop.At(at, func() {
			j := fairJob(sys, fmt.Sprintf("t%d", i%3), slotMem)
			jobs = append(jobs, j)
			// Cancel every third job shortly after submission: some are
			// still queued (cancel succeeds), some already admitted by an
			// intervening flush (cancel must refuse and leave them running).
			if i%3 == 1 {
				loop.At(at+eventloop.Time(5*eventloop.Millisecond), func() {
					sys.CancelJob(j)
				})
			}
			// Flush in bursts, like the front-door pump; the final
			// submission always flushes so nothing is left parked.
			if i%5 == 4 || i == n-1 {
				sys.FlushAdmission()
			}
		})
	}
	loop.Run()

	if !sys.AllDone() {
		t.Fatalf("%d/%d jobs done", sys.done, sys.submitted)
	}
	var finished, cancelled int
	for _, j := range jobs {
		switch j.State {
		case JobFinished:
			finished++
		case JobCancelled:
			cancelled++
		default:
			t.Errorf("job %d in non-terminal state %v", j.ID, j.State)
		}
	}
	if cancelled == 0 || finished == 0 {
		t.Fatalf("degenerate churn: %d finished, %d cancelled", finished, cancelled)
	}
	if got := sys.Sched.QueuedCount(); got != 0 {
		t.Errorf("queued count %d after drain", got)
	}
	if got := sys.Sched.AdmittedCount(); got != 0 {
		t.Errorf("admitted count %d after drain", got)
	}
	for _, ts := range sys.Sched.TenantShares() {
		if ts.Reserved != 0 {
			t.Errorf("tenant %s leaked %.0f reserved bytes", ts.Tenant, ts.Reserved)
		}
		if ts.Queued != 0 {
			t.Errorf("tenant %s has %d jobs still waiting", ts.Tenant, ts.Queued)
		}
	}
}

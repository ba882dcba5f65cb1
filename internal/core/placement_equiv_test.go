package core

// Equivalence suite for the sub-linear placement path: the top-K candidate
// index with K ≥ W must produce placements bit-identical to the exact full
// scan — at tick granularity on the saturated bench fixture and at system
// granularity on full simulated runs (including a worker failure).

import (
	"testing"

	"ursa/internal/eventloop"
)

// placeKey is a comparable projection of one placement.
type placeKey struct {
	stage  int
	task   int
	worker int
}

func tickKeys(pb *PlacementBench) []placeKey {
	pls := pb.TickPlacements()
	keys := make([]placeKey, len(pls))
	for i, pl := range pls {
		keys[i] = placeKey{stage: pl.Stage.Stage.ID, task: pl.Task.ID, worker: pl.Worker.ID}
	}
	return keys
}

// assertSameTicks drives both fixtures for several ticks and requires
// identical placement sequences.
func assertSameTicks(t *testing.T, name string, exact, variant *PlacementBench, ticks int) {
	t.Helper()
	for tick := 0; tick < ticks; tick++ {
		want := tickKeys(exact)
		got := tickKeys(variant)
		if len(want) == 0 {
			t.Fatalf("%s: tick %d placed nothing; fixture not exercising the hot path", name, tick)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: tick %d placement count %d != exact %d", name, tick, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: tick %d placement %d = %+v, exact %+v", name, tick, i, got[i], want[i])
			}
		}
	}
}

func TestTickEquivalenceTopKAtLeastW(t *testing.T) {
	for _, k := range []int{48, 64, 1 << 20} {
		exact := NewPlacementBench(48, 24, 8)
		topk := NewPlacementBench(48, 24, 8)
		topk.Configure(func(c *Config) { c.CandidateWorkers = k })
		assertSameTicks(t, "topk-exact", exact, topk, 4)
	}
}

func TestTickEquivalenceAllFlagsExactK(t *testing.T) {
	exact := NewPlacementBench(48, 24, 8)
	all := NewPlacementBench(48, 24, 8)
	all.Configure(func(c *Config) {
		c.CandidateWorkers = 48 // K = W: exact scan, index plumbing active
	})
	assertSameTicks(t, "all-flags", exact, all, 6)
}

// TestTickTopKSmallDeterministic pins down that the approximate K < W path
// is itself deterministic (two identical fixtures agree tick for tick) and
// still saturates the pool.
func TestTickTopKSmallDeterministic(t *testing.T) {
	mk := func() *PlacementBench {
		pb := NewPlacementBench(48, 24, 8)
		pb.Configure(func(c *Config) { c.CandidateWorkers = 8 })
		return pb
	}
	a, b := mk(), mk()
	for tick := 0; tick < 6; tick++ {
		ka, kb := tickKeys(a), tickKeys(b)
		if len(ka) == 0 {
			t.Fatal("top-K path placed nothing")
		}
		if len(ka) != len(kb) {
			t.Fatalf("tick %d: run A placed %d, run B %d", tick, len(ka), len(kb))
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("tick %d placement %d differs: %+v vs %+v", tick, i, ka[i], kb[i])
			}
		}
	}
}

// TestTickEquivalenceHetero re-proves the optimized paths' exactness on a
// mixed-capacity cluster with interference-displaced measured rates — the
// setting the bucketed index's [0,1]-per-worker invariant must survive —
// with the interference penalty both off and on. K = W keeps the index plumbing active while remaining an
// exact scan.
func TestTickEquivalenceHetero(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"topk-exact", func(c *Config) { c.CandidateWorkers = 48 }},
	}
	for _, penalty := range []bool{false, true} {
		name := "penalty-off"
		if penalty {
			name = "penalty-on"
		}
		for _, v := range variants {
			exact := NewPlacementBenchHetero(48, 24, 8)
			exact.Configure(func(c *Config) { c.InterferencePenalty = penalty })
			variant := NewPlacementBenchHetero(48, 24, 8)
			variant.Configure(func(c *Config) {
				c.InterferencePenalty = penalty
				v.mod(c)
			})
			assertSameTicks(t, name+"/"+v.name, exact, variant, 6)
		}
	}
}

// runSystem executes n shuffle jobs (optionally killing a worker mid-run)
// under the given config and returns each job's finish time. Bit-identical
// scheduling decisions imply bit-identical finish times.
func runSystem(t *testing.T, cfg Config, n int, failAt eventloop.Duration) []eventloop.Time {
	t.Helper()
	loop, clus := testCluster(4)
	sys := NewSystem(loop, clus, cfg)
	jobs := submitN(t, sys, n, eventloop.Second/2)
	if failAt > 0 {
		loop.After(failAt, func() { sys.FailWorker(2) })
	}
	loop.Run()
	if !sys.AllDone() {
		t.Fatal("jobs did not finish")
	}
	out := make([]eventloop.Time, len(jobs))
	for i, j := range jobs {
		out[i] = j.Finished
	}
	return out
}

// TestSystemEquivalence runs full simulations and demands bit-identical
// job finish times between the exact scheduler and the top-K path with
// K ≥ W, under both ordering policies and across a worker failure (which
// exercises the failed-worker sentinel in the snapshot).
func TestSystemEquivalence(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"topk-exact", func(c *Config) { c.CandidateWorkers = 1 << 20 }},
	}
	scenarios := []struct {
		name   string
		policy Policy
		failAt eventloop.Duration
	}{
		{"ejf", EJF, 0},
		{"srjf", SRJF, 0},
		{"ejf-fault", EJF, 2 * eventloop.Second},
	}
	for _, sc := range scenarios {
		base := Config{Policy: sc.policy}
		want := runSystem(t, base, 6, sc.failAt)
		for _, v := range variants {
			cfg := base
			v.mod(&cfg)
			got := runSystem(t, cfg, 6, sc.failAt)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s/%s: job %d finished at %v, exact %v",
						sc.name, v.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSystemEquivalenceHetero runs full simulations on a mixed-capacity
// cluster (one machine contended) and demands bit-identical job finish
// times between the exact scheduler and the top-K path with K ≥ W, with
// the interference penalty off and on.
func TestSystemEquivalenceHetero(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"topk-exact", func(c *Config) { c.CandidateWorkers = 1 << 20 }},
	}
	run := func(cfg Config) []eventloop.Time {
		t.Helper()
		loop, clus := heteroTestCluster(3, 1, 0.5)
		sys := NewSystem(loop, clus, cfg)
		jobs := submitN(t, sys, 6, eventloop.Second/2)
		loop.Run()
		if !sys.AllDone() {
			t.Fatal("jobs did not finish")
		}
		out := make([]eventloop.Time, len(jobs))
		for i, j := range jobs {
			out[i] = j.Finished
		}
		return out
	}
	for _, penalty := range []bool{false, true} {
		name := "penalty-off"
		if penalty {
			name = "penalty-on"
		}
		base := Config{InterferencePenalty: penalty}
		want := run(base)
		for _, v := range variants {
			cfg := base
			v.mod(&cfg)
			got := run(cfg)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s/%s: job %d finished at %v, exact %v",
						name, v.name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSystemTopKSmallCompletes checks that the approximate K < W candidate
// path still drives full workloads to completion (no task starves because
// its viable worker sits outside the candidate set forever).
func TestSystemTopKSmallCompletes(t *testing.T) {
	cfg := Config{}
	cfg.CandidateWorkers = 2 // 4 workers: genuinely restrictive
	times := runSystem(t, cfg, 6, 0)
	for i, at := range times {
		if at <= 0 {
			t.Errorf("job %d never finished (at=%v)", i, at)
		}
	}
}

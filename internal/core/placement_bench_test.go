package core

import (
	"runtime"
	"testing"
)

// BenchmarkPlacementTick measures one scheduler placement pass over a
// saturated pool: 64 workers × 32 stages × 16 tasks. This is the hot path
// that bounds how small the scheduling interval can be (§4.2.2), and the
// allocs/op number is the headline figure tracked in BENCH_core.json.
func BenchmarkPlacementTick(b *testing.B) {
	pb := NewPlacementBench(64, 32, 16)
	if pb.Tick() == 0 {
		b.Fatal("placement pass placed nothing; fixture is not exercising the hot path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Tick()
	}
}

// BenchmarkPlacementTickHetero is the same pool on a mixed-capacity fleet
// with the interference penalty on (placement_tick_hetero in
// BENCH_core.json): the penalty path must stay allocation-free too.
func BenchmarkPlacementTickHetero(b *testing.B) {
	pb := NewPlacementBenchHetero(64, 32, 16)
	pb.Configure(func(c *Config) { c.InterferencePenalty = true })
	if pb.Tick() == 0 {
		b.Fatal("placement pass placed nothing; fixture is not exercising the hot path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Tick()
	}
}

// BenchmarkPlacementTickSmall is the same pass at the paper's testbed scale
// (20 workers), closer to what one 100 ms interval really costs.
func BenchmarkPlacementTickSmall(b *testing.B) {
	pb := NewPlacementBench(20, 8, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Tick()
	}
}

// benchTickAt runs the placement tick benchmark at a given cluster scale,
// optionally with the scalable (sub-linear) placement path enabled. The
// exact/scalable pairs at each scale feed the EXPERIMENTS.md cluster-scale
// table and the ≥5× acceptance bar at 1024 workers.
func benchTickAt(b *testing.B, workers, stages, tasks int, scalable bool) {
	b.Helper()
	pb := NewPlacementBench(workers, stages, tasks)
	if scalable {
		pb.EnableScalable()
	}
	if pb.Tick() == 0 {
		b.Fatal("placement pass placed nothing; fixture is not exercising the hot path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Tick()
	}
}

// BenchmarkPlacementTickScalable is BenchmarkPlacementTick's pool on the
// scalable path: top-K still prunes at 64 workers (K = 16).
func BenchmarkPlacementTickScalable(b *testing.B) { benchTickAt(b, 64, 32, 16, true) }

// BenchmarkPlacementTickMediumExact / ...Medium measure a 256-worker pool.
func BenchmarkPlacementTickMediumExact(b *testing.B) { benchTickAt(b, 256, 64, 16, false) }
func BenchmarkPlacementTickMedium(b *testing.B)      { benchTickAt(b, 256, 64, 16, true) }

// BenchmarkPlacementTickLargeExact is the exact serial scan at cluster scale:
// 1024 workers × 256 stages × 16 tasks. Its ratio to
// BenchmarkPlacementTickLarge is the headline speedup of ISSUE 2.
func BenchmarkPlacementTickLargeExact(b *testing.B) { benchTickAt(b, 1024, 256, 16, false) }

// BenchmarkPlacementTickLarge is the same pool on the fixture's scalable
// path (top-K candidate index; see EnableScalable).
func BenchmarkPlacementTickLarge(b *testing.B) { benchTickAt(b, 1024, 256, 16, true) }

// TestPlacementTickAllocsZero pins the steady-state placement tick at zero
// heap allocations with more than one proc, on the placement_tick fixture,
// the hetero+penalty fixture and the 64-worker scalable fixture.
// testing.AllocsPerRun forces GOMAXPROCS to 1, so the test counts Mallocs
// itself; GOMAXPROCS is set before each fixture is built, because a fixture
// may size itself by it.
func TestPlacementTickAllocsZero(t *testing.T) {
	fixtures := []struct {
		name string
		mk   func() *PlacementBench
	}{
		{"exact", func() *PlacementBench { return NewPlacementBench(64, 32, 16) }},
		{"hetero-penalty", func() *PlacementBench {
			pb := NewPlacementBenchHetero(64, 32, 16)
			pb.Configure(func(c *Config) { c.InterferencePenalty = true })
			return pb
		}},
		{"scalable", func() *PlacementBench {
			pb := NewPlacementBench(64, 32, 16)
			pb.EnableScalable()
			return pb
		}},
	}
	const ticks = 200
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, f := range fixtures {
			pb := f.mk()
			if pb.Tick() == 0 { // warm-up: grows the reusable buffers
				t.Fatalf("%s: placement pass placed nothing", f.name)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < ticks; i++ {
				pb.Tick()
			}
			runtime.ReadMemStats(&after)
			if per := (after.Mallocs - before.Mallocs) / ticks; per != 0 {
				t.Errorf("%s at GOMAXPROCS=%d: %d allocs/tick, want 0", f.name, procs, per)
			}
		}
	}
}

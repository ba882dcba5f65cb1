package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/experiments"
	"ursa/internal/workload"
)

// simConfig shapes the simulator workload.
type simConfig struct {
	// Machines is the fleet size, in the paper's 32-core machine shape.
	Machines int `json:"machines"`
	// Streams independent TPC-H streams are simulated per pass; their jobs
	// are pooled for the JCT figures.
	Streams int `json:"streams"`
	// Rounds per stream; a round submits each of the 22 queries once.
	Rounds int `json:"rounds"`
	// GapS is the fixed arrival interval in virtual seconds.
	GapS float64 `json:"gap_s"`
	// Setups is how many times generation and system build are timed, half
	// before the passes and half after.
	Setups int `json:"setups"`
	// MaxPasses bounds the timed repetitions of the whole stream set.
	MaxPasses int `json:"max_passes"`
}

// tpchStream generates one TPC-H stream: rounds of the 22 queries, each
// round in a seeded order, one query in three at 500 GB and the rest at
// 200 GB, arriving every gap. Every seed submits the same multiset of jobs;
// the seed decides their order, so runs of different seeds load the fleet
// alike.
func tpchStream(rounds int, gap float64, rng *rand.Rand) (*workload.Workload, error) {
	w := &workload.Workload{Name: "tpch-rounds"}
	for r := 0; r < rounds; r++ {
		for _, qi := range rng.Perm(22) {
			q := qi + 1
			scale := 200e9
			if (q+r)%3 == 0 {
				scale = 500e9
			}
			spec, err := workload.Query(fmt.Sprintf("q%d", q), scale, int64(100*r+q))
			if err != nil {
				return nil, err
			}
			i := len(w.Jobs)
			spec.Name = fmt.Sprintf("%s-%d", spec.Name, i)
			w.Jobs = append(w.Jobs, workload.Submission{
				Spec: spec,
				At:   eventloop.Time(float64(i) * gap * float64(eventloop.Second)),
			})
		}
	}
	return w, nil
}

func (c simConfig) cluster() cluster.Config {
	cc := cluster.Default20x32()
	cc.Machines = c.Machines
	return cc
}

// streams derives each stream's seed from the run seed.
func (c simConfig) streams(seed int64) ([]*workload.Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*workload.Workload, c.Streams)
	for i := range out {
		w, err := tpchStream(c.Rounds, c.GapS, rand.New(rand.NewSource(rng.Int63())))
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// buildSystem is RunUrsa's construction: loop, cluster, scheduling core,
// every job submitted at its arrival time.
func buildSystem(w *workload.Workload, cc cluster.Config) (*eventloop.Loop, *core.System) {
	loop := eventloop.New()
	sys := core.NewSystem(loop, cluster.New(loop, cc), core.Config{})
	for _, s := range w.Jobs {
		sys.MustSubmit(s.Spec, s.At)
	}
	return loop, sys
}

// simOutcome is what the simulator workload measured.
type simOutcome struct {
	setups    []float64 // s
	passes    []float64 // wall s per pass over all streams
	results   []experiments.Result
	jobs      int
	monotasks int
	allocB    uint64
	mismatch  string // non-empty when a repeat pass disagreed
	stalled   string

	// traced stepping
	steps     []float64 // ms per SchedInterval window
	queued    []float64
	pending   []float64
	stepMatch string
}

// runSim simulates the stream set repeatedly until the time budget is spent
// (at least once, at most MaxPasses), checking that every pass reproduces
// the first exactly. Setup rounds are timed before and after the passes.
func runSim(cfg simConfig, seed int64, budget time.Duration, traced bool) (out *simOutcome, err error) {
	out = &simOutcome{}
	cc := cfg.cluster()
	// A job graph carries runtime state once a plan is built from it, so
	// every build and every pass gets freshly generated streams; generation
	// is deterministic in the seed.
	before := cfg.Setups / 2
	if err := out.timeSetups(cfg, seed, before); err != nil {
		return nil, err
	}
	counted, err := cfg.streams(seed)
	if err != nil {
		return nil, err
	}
	for _, w := range counted {
		out.jobs += len(w.Jobs)
		for _, s := range w.Jobs {
			out.monotasks += monotaskCount(s.Spec)
		}
	}

	defer func() {
		// RunUrsa panics when a workload stalls: report it as a failed check.
		if r := recover(); r != nil {
			out.stalled = fmt.Sprint(r)
			err = nil
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var measured time.Duration
	for pass := 0; pass < cfg.MaxPasses && (pass == 0 || measured < budget); pass++ {
		ws, err := cfg.streams(seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		var rs []experiments.Result
		for _, w := range ws {
			rs = append(rs, experiments.RunUrsa(w, core.Config{}, cc, 0))
		}
		d := time.Since(t0)
		measured += d
		out.passes = append(out.passes, d.Seconds())
		if pass == 0 {
			out.results = rs
		} else if out.mismatch == "" && !reflect.DeepEqual(rs, out.results) {
			out.mismatch = fmt.Sprintf("pass %d outcomes differ from pass 0", pass)
		}
	}
	runtime.ReadMemStats(&m1)
	out.allocB = m1.TotalAlloc - m0.TotalAlloc
	if err := out.timeSetups(cfg, seed, cfg.Setups-before); err != nil {
		return nil, err
	}

	if traced {
		ws, err := cfg.streams(seed)
		if err != nil {
			return nil, err
		}
		for i, w := range ws {
			jcts := stepSystem(w, cc, out)
			if !reflect.DeepEqual(jcts, out.results[i].JCTs) && out.stepMatch == "" {
				out.stepMatch = fmt.Sprintf("stream %d: stepped JCTs differ from RunUrsa", i)
			}
		}
	}
	return out, nil
}

// timeSetups times n rounds of generating the streams and building their
// systems.
func (out *simOutcome) timeSetups(cfg simConfig, seed int64, n int) error {
	cc := cfg.cluster()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ws, err := cfg.streams(seed)
		if err != nil {
			return err
		}
		for _, w := range ws {
			buildSystem(w, cc)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	return nil
}

// stepSystem runs RunUrsa's construction one SchedInterval window at a time
// with Loop.RunUntil, timing each window and sampling the scheduler's queue
// and the event loop's pending timers. It returns the per-job JCTs.
func stepSystem(w *workload.Workload, cc cluster.Config, out *simOutcome) []float64 {
	loop, sys := buildSystem(w, cc)
	window := sys.Cfg.SchedInterval
	for !sys.AllDone() {
		t0 := time.Now()
		loop.RunUntil(loop.Now() + eventloop.Time(window))
		out.steps = append(out.steps, ms(time.Since(t0)))
		out.queued = append(out.queued, float64(sys.Sched.QueuedCount()))
		out.pending = append(out.pending, float64(loop.Pending()))
	}
	jcts := make([]float64, 0, len(sys.Jobs()))
	for _, j := range sys.Jobs() {
		jcts = append(jcts, j.JCT().Seconds())
	}
	return jcts
}

// monotaskCount is the number of monotasks a job's plan launches.
func monotaskCount(spec core.JobSpec) int {
	return len(spec.Graph.MustBuild().RealMonotasks())
}

package main

import (
	"os"
	"time"

	"ursa/internal/core"
	"ursa/internal/journal"
	"ursa/internal/remote/workload"
)

// Standalone layer probes: each times one layer's public entry point in
// isolation, outside any cluster, so a traced run can attribute a layer's
// cost without instrumenting the program.

// buildMs is the median time of workload.Build for one job kind: the work
// the master's admission pump does per submission.
func buildMs(k jobKind, reps int) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := workload.Build(k.Name, k.Params); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts), nil
}

// directMs is the median single-worker direct execution time of a kind.
func directMs(k jobKind, reps int) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		_, d, _, err := directRows(k)
		if err != nil {
			return 0, err
		}
		ts = append(ts, ms(d))
	}
	return median(ts), nil
}

// journalProbe appends event-sized records to a fresh journal and syncs
// every batch of them, as the master's group commit does. It returns the
// mean append time in µs and the p50/p99 fsync time in ms.
func journalProbe(workDir string, batches, perBatch, payload int) (appendUs, syncP50, syncP99 float64, err error) {
	dir, err := os.MkdirTemp(workDir, "journal-probe-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	rec := make([]byte, payload)
	var appendTotal time.Duration
	var syncs []float64
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			rec[0] = byte(i)
			t0 := time.Now()
			if _, err := j.Append(rec); err != nil {
				j.Close()
				return 0, 0, 0, err
			}
			appendTotal += time.Since(t0)
		}
		t0 := time.Now()
		if err := j.Sync(); err != nil {
			j.Close()
			return 0, 0, 0, err
		}
		syncs = append(syncs, ms(time.Since(t0)))
	}
	if err := j.Close(); err != nil {
		return 0, 0, 0, err
	}
	n := float64(batches * perBatch)
	return float64(appendTotal) / 1e3 / n, percentile(syncs, 50), percentile(syncs, 99), nil
}

// tickUs is the median placement tick over the core's saturated-pool
// fixture at the given fleet size.
func tickUs(workers, stages, tasks, ticks int) float64 {
	pb := core.NewPlacementBench(workers, stages, tasks)
	pb.Tick() // first tick builds the snapshot caches
	var ts []float64
	for i := 0; i < ticks; i++ {
		t0 := time.Now()
		pb.Tick()
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(ts)
}

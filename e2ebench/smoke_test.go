package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"ursa/internal/remote/workload"
)

// tinyServe is a seconds-long serve configuration of the given mix.
func tinyServe(mix []jobKind, open bool) serveConfig {
	cfg := serveConfig{
		Agents: 1, Setups: 2, Warmup: 4, WarmupWindow: 2,
		Window: 4, ClosedFor: 2 * time.Second,
		Mix: mix, Timeout: 20 * time.Second,
	}
	if open {
		cfg.OpenReps, cfg.OpenJobs, cfg.OpenRate = 2, 30, 200
	}
	return cfg
}

func checkReport(t *testing.T, rep *report) {
	t.Helper()
	if len(rep.problems) > 0 {
		t.Fatalf("checks failed: %v", rep.problems)
	}
	if rep.res.Attempted == 0 || rep.res.Failed != 0 {
		t.Fatalf("attempted %d failed %d", rep.res.Attempted, rep.res.Failed)
	}
	for _, d := range endToEndMetrics {
		if m, ok := rep.e2e[d.name]; !ok || !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %+v, want > 0", d.name, m)
		}
	}
	if len(rep.layer) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics, want %d", len(rep.layer), len(layerMetrics))
	}
}

func TestSmokeServeMicro(t *testing.T) {
	kinds := allKinds(1)
	cfg := tinyServe([]jobKind{kinds["micro"]}, true)
	tr := &tracer{}
	rep := newReport()
	if err := serveReport(rep, cfg, 1, t.TempDir(), tr); err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	if rep.layer["trace.jobs_tiled"].Value == 0 {
		t.Errorf("no job spans were tiled")
	}
	if rep.layer["transport.dispatches"].Value == 0 {
		t.Errorf("no dispatches counted over the measured phase")
	}
}

func TestSmokeServeAnalytics(t *testing.T) {
	// The analytics kinds at a tiny size, so jobs finish within the short
	// closed phase even under the race detector.
	n, p := workload.WordCount(workload.WordCountParams{Lines: 400, InParts: 4, OutParts: 4})
	wc := jobKind{Label: "wordcount", Name: n, Params: p}
	n, p = workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 400})
	sql := jobKind{Label: "sql_q1", Name: n, Params: p}
	cfg := tinyServe([]jobKind{wc, sql}, false)
	rep := newReport()
	if err := serveReport(rep, cfg, 2, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
}

func TestSmokeSim(t *testing.T) {
	cfg := simConfig{Machines: 8, Streams: 1, Rounds: 1, GapS: 5, Setups: 1, MaxPasses: 2}
	rep := newReport()
	if err := simReport(rep, cfg, 3, time.Second, true); err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	if rep.res.Attempted != 22 {
		t.Errorf("attempted %d jobs, want 22", rep.res.Attempted)
	}
	if rep.layer["sim.steps"].Value == 0 {
		t.Errorf("traced sim recorded no steps")
	}
}

func TestSameRowsDetectsMismatch(t *testing.T) {
	k := allKinds(1)["sql_q0"]
	rows, _, ordered, err := directRows(k)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(rows, rows, ordered) {
		t.Fatalf("rows differ from themselves")
	}
	if sameRows(rows[1:], rows, ordered) {
		t.Errorf("a missing row went unnoticed")
	}
	if ordered && len(rows) > 1 {
		swapped := append(rows[1:2:2], rows[0])
		swapped = append(swapped, rows[2:]...)
		if sameRows(swapped, rows, ordered) {
			t.Errorf("reordered ORDER BY output went unnoticed")
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-tpch", "--trace", "2"},
		{"--workload", "sim-tpch", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	rep := newReport()
	rep.res.Attempted = 1
	rep.res.Metrics = rep.layer
	b, err := json.Marshal(rep.res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := m[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(m) != 4 {
		t.Errorf("result line has %d keys, want 4", len(m))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with what
// the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i] != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
}

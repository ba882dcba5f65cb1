// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload — two on an in-process loopback serve-mode cluster (real
// TCP, journal on), one on the deterministic simulator — checks the outputs,
// and prints its metrics as one JSON object on the last line of standard
// output. See README.md for the workloads, the metrics and the traced mode.
//
//	e2ebench --workload serve-micro --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"ursa/internal/remote/workload"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's numbers: the gated end-to-end metrics, the
// per-layer metrics, and the named figures printed for people.
type report struct {
	res      result
	e2e      map[string]metric
	layer    map[string]metric
	lines    []string
	problems []string
	// runMedian is each kind's median run span, kept until the traced run's
	// probes measure the direct baseline to subtract from it.
	runMedian map[string]float64
}

func newReport() *report {
	r := &report{e2e: map[string]metric{}, layer: map[string]metric{}}
	// Every per-layer metric is reported on every workload; a layer the
	// workload does not cross reads 0.
	for _, m := range layerMetrics {
		r.layer[m.name] = metric{0, m.unit}
	}
	return r
}

func (r *report) endToEnd(name string, v float64, unit string) {
	if !slices.Contains(endToEndMetrics, metricDef{name, unit}) {
		panic("e2ebench: unlisted end-to-end metric " + name)
	}
	r.e2e[name] = metric{v, unit}
	r.say(name, v, unit)
}

func (r *report) perLayer(name string, v float64) {
	m, ok := r.layer[name]
	if !ok {
		panic("e2ebench: unlisted per-layer metric " + name)
	}
	m.Value = v
	r.layer[name] = m
}

// say prints a named figure for people (not part of the JSON result).
func (r *report) say(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("metric %-28s %14.4f %s", name, v, unit))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEndMetrics are gated: every workload reports each of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"job_p50_ms", "ms"}, {"jobs_per_s", "jobs/s"},
	{"launch_per_s", "monotasks/s"}, {"alloc_bytes_per_job", "B/job"},
}

// kindLabels are the job kinds whose per-kind layer metrics every workload
// reports.
var kindLabels = []string{"micro", "wordcount", "sql_q0", "sql_q1", "sql_q2"}

var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"frontdoor.ack_p50_ms", "ms"}, {"frontdoor.ack_p99_ms", "ms"}, {"frontdoor.status_drops", "count"},
		{"admission.wait_p50_ms", "ms"}, {"admission.wait_p99_ms", "ms"},
		{"admission.batches", "count"}, {"admission.mean_batch", "jobs"},
		{"run.p50_ms", "ms"}, {"run.p99_ms", "ms"},
		{"localrt.result_read_ms", "ms"},
		{"transport.dispatches", "count"}, {"transport.completions", "count"}, {"transport.rtt_ms", "ms"},
		{"transport.wire_mb", "MB"}, {"transport.raw_mb", "MB"}, {"transport.failures", "count"},
		{"shuffle.served_mb", "MB"}, {"shuffle.fetch_retries", "count"}, {"shuffle.fetch_fallbacks", "count"},
		{"journal.append_us", "us"}, {"journal.sync_p50_ms", "ms"}, {"journal.sync_p99_ms", "ms"},
		{"core.tick_us", "us"},
		{"sim.step_p50_ms", "ms"}, {"sim.step_p99_ms", "ms"}, {"sim.steps", "count"},
		{"core.queued_jobs_mean", "jobs"}, {"eventloop.pending_mean", "count"},
		{"sim.wall_s", "s"}, {"sim.avg_jct_s", "s"}, {"sim.makespan_s", "s"},
		{"sim.ue_cpu_pct", "%"}, {"sim.se_cpu_pct", "%"},
		{"self.submit_ms", "ms"}, {"self.admission_ms", "ms"}, {"self.run_ms", "ms"}, {"self.job_ms", "ms"},
		{"job.p90_ms", "ms"}, {"job.p99_ms", "ms"},
		{"loadgen.late_p99_ms", "ms"}, {"loadgen.late_max_ms", "ms"},
		{"loadgen.failed_frac", "ratio"}, {"loadgen.reconciled", "count"},
		{"trace.overhead_pct", "%"}, {"trace.jobs_tiled", "count"},
		{"trace.stamps_missing", "count"}, {"trace.ack_clamped", "count"},
	}
	for _, k := range kindLabels {
		ms = append(ms,
			metricDef{"workload.build_ms." + k, "ms"},
			metricDef{"localrt.direct_ms." + k, "ms"},
			metricDef{"run.overhead_ms." + k, "ms"})
	}
	return ms
}()

// allKinds are the job kinds the serve workloads submit, sized per seed.
func allKinds(seed int64) map[string]jobKind {
	kinds := map[string]jobKind{}
	add := func(label, name string, params []byte) {
		kinds[label] = jobKind{Label: label, Name: name, Params: params}
	}
	// Per-job data work is negligible: the control plane alone.
	n, p := workload.Micro(workload.MicroParams{Rows: 256, InParts: 2, OutParts: 2, Keys: 8})
	add("micro", n, p)
	// Shuffle-heavy: many input and output partitions. The seed moves input
	// sizes by at most about 1%, so each seed's output check sees new data
	// while every seed does nearly the same work.
	n, p = workload.WordCount(workload.WordCountParams{Lines: 12000 + int(seed%16)*10, InParts: 16, OutParts: 16})
	add("wordcount", n, p)
	for q := range workload.SQLQueries {
		n, p = workload.SQLAnalytics(workload.SQLParams{QueryIndex: q, SalesRows: 8000 + int(seed%16)*5})
		add(fmt.Sprintf("sql_q%d", q), n, p)
	}
	return kinds
}

func microConfig(seconds time.Duration, seed int64) serveConfig {
	k := allKinds(seed)
	const reps, jobs, rate = 5, 500, 250.0
	open := time.Duration(reps * jobs / rate * float64(time.Second))
	return serveConfig{
		Agents: 2, Setups: 41, Warmup: 300, WarmupWindow: 16,
		OpenReps: reps, OpenJobs: jobs, OpenRate: rate,
		Window: 32, ClosedFor: max(seconds-open, time.Second),
		Mix: []jobKind{k["micro"]}, Timeout: 20 * time.Second,
	}
}

func analyticsConfig(seconds time.Duration, seed int64) serveConfig {
	k := allKinds(seed)
	return serveConfig{
		Agents: 2, Setups: 41, Warmup: 8, WarmupWindow: 8,
		Window: 4, ClosedFor: seconds,
		Mix:     []jobKind{k["wordcount"], k["sql_q0"], k["sql_q1"], k["sql_q2"]},
		Timeout: 60 * time.Second,
	}
}

func simTPCHConfig() simConfig {
	return simConfig{Machines: 40, Streams: 3, Rounds: 3, GapS: 5, Setups: 9, MaxPasses: 8}
}

var workloads = []string{"serve-micro", "serve-analytics", "sim-tpch"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-micro | serve-analytics | sim-tpch")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := fs.String("out", "", "directory for scratch files and the span dump (default: system temp dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	workDir := *outDir
	if workDir == "" {
		workDir = os.TempDir()
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	budget := time.Duration(*seconds) * time.Second
	var tr *tracer
	if *traced == 1 {
		tr = &tracer{}
	}

	rep := newReport()
	var params any
	var err error
	switch *name {
	case "serve-micro":
		cfg := microConfig(budget, *seed)
		params = cfg
		err = serveReport(rep, cfg, *seed, workDir, tr)
	case "serve-analytics":
		cfg := analyticsConfig(budget, *seed)
		params = cfg
		err = serveReport(rep, cfg, *seed, workDir, tr)
	case "sim-tpch":
		cfg := simTPCHConfig()
		params = cfg
		err = simReport(rep, cfg, *seed, budget, tr != nil)
	default:
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %v)\n", *name, workloads)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if tr != nil {
		if err := probeLayers(rep, *seed, workDir); err != nil {
			fmt.Fprintln(stderr, "e2ebench: layer probes:", err)
			return 1
		}
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "e2ebench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(tr.spans), path)
	}

	env := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"params": params,
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(stdout, string(envLine))
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	rep.res.Correct = len(rep.problems) == 0
	rep.res.Metrics = rep.e2e
	if tr != nil {
		rep.res.Metrics = rep.layer
	}
	for k, m := range rep.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN: report the metric as 0 and the run as wrong.
			rep.res.Correct = false
			fmt.Fprintf(stdout, "CHECK FAILED: metric %s is %v\n", k, m.Value)
			rep.res.Metrics[k] = metric{0, m.Unit}
		}
	}
	last, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !rep.res.Correct {
		return 1
	}
	return 0
}

// serveReport runs a serve workload and turns its outcome into metrics.
func serveReport(rep *report, cfg serveConfig, seed int64, workDir string, tr *tracer) error {
	o, err := runServe(cfg, seed, workDir, tr)
	if err != nil {
		return err
	}
	if o.runErr != nil {
		rep.fail("serve run: %v", o.runErr)
	}
	for _, c := range o.checks {
		rep.res.Attempted++
		if !c.ok {
			rep.res.Failed++
			rep.fail("check job %s: %s", c.kind.Label, c.detail)
		}
	}
	reconciled := tally(rep, o.jobs)
	latPhase := "closed"
	if cfg.OpenReps > 0 {
		latPhase = "open"
	}
	// Latencies are grouped per open-phase repetition (one group for a
	// closed phase); the reported percentiles are medians over groups.
	var ack, adm, runT []float64
	lat := make([][]float64, max(cfg.OpenReps, 1))
	runByKind := map[int][]float64{}
	for _, j := range o.jobs {
		if j.failed || j.run.phase != latPhase || !j.haveFinished {
			continue
		}
		a, _ := j.ack()
		lat[j.run.rep] = append(lat[j.run.rep], ms(j.finished.Sub(j.run.due)))
		ack = append(ack, ms(a.Sub(j.run.due)))
		if j.haveAdmitted {
			adm = append(adm, ms(j.admitted.Sub(a)))
			runT = append(runT, ms(j.finished.Sub(j.admitted)))
			runByKind[j.run.kind] = append(runByKind[j.run.kind], ms(j.finished.Sub(j.admitted)))
		}
	}
	var p50s, p90s, pooled []float64
	for _, xs := range lat {
		if len(xs) == 0 {
			return fmt.Errorf("a %s-phase group finished no job", latPhase)
		}
		p50s = append(p50s, percentile(xs, 50))
		p90s = append(p90s, percentile(xs, 90))
		pooled = append(pooled, xs...)
	}
	finished := closedFinishes(o.jobs, o.closedStart, cfg.ClosedFor)
	closed := cfg.ClosedFor.Seconds()
	rep.lines = append(rep.lines,
		fmt.Sprintf("per-group job latency p50 %.2f ms, p90 %.2f ms", p50s, p90s))
	measured := len(o.jobs) - countPhase(o.jobs, "warmup")
	failedFrac := float64(rep.res.Failed) / float64(rep.res.Attempted)

	rep.endToEnd("setup_s", median(o.setups), "s")
	rep.lines = append(rep.lines, setupLine(o.setups))
	rep.endToEnd("job_p50_ms", median(p50s), "ms")
	rep.endToEnd("jobs_per_s", float64(finished)/closed, "jobs/s")
	rep.endToEnd("launch_per_s", float64(o.closedLaunched)/closed, "monotasks/s")
	rep.endToEnd("alloc_bytes_per_job", float64(o.allocB)/float64(max(o.measFin, 1)), "B/job")
	rep.say("job_p90_ms", median(p90s), "ms")
	rep.say("job_p99_ms", percentile(pooled, 99), "ms")
	rep.perLayer("job.p90_ms", median(p90s))
	rep.perLayer("job.p99_ms", percentile(pooled, 99))
	rep.say("ack_p99_ms", percentile(ack, 99), "ms")
	rep.say("failed_frac", failedFrac, "ratio")
	rep.say("latency_samples", float64(len(pooled)), fmt.Sprintf("jobs in %d %s-phase groups, %d beyond p99",
		len(lat), latPhase, beyond(pooled, 99)))
	rep.say("measured_jobs", float64(measured), "jobs")

	rep.perLayer("frontdoor.ack_p50_ms", percentile(ack, 50))
	rep.perLayer("frontdoor.ack_p99_ms", percentile(ack, 99))
	rep.perLayer("frontdoor.status_drops", float64(o.measCtr.statusDrops))
	rep.perLayer("admission.wait_p50_ms", percentile(adm, 50))
	rep.perLayer("admission.wait_p99_ms", percentile(adm, 99))
	rep.perLayer("admission.batches", float64(o.measCtr.batches))
	if o.measCtr.batches > 0 {
		rep.perLayer("admission.mean_batch", float64(o.measCtr.batchedJobs)/float64(o.measCtr.batches))
	}
	rep.perLayer("run.p50_ms", percentile(runT, 50))
	rep.perLayer("run.p99_ms", percentile(runT, 99))
	c := o.measCtr
	rep.perLayer("transport.dispatches", float64(c.dispatches))
	rep.perLayer("transport.completions", float64(c.completions))
	if c.rttN > 0 {
		rep.perLayer("transport.rtt_ms", 1e3*c.rttSum/float64(c.rttN))
	}
	rep.perLayer("transport.wire_mb", c.wireB/1e6)
	rep.perLayer("transport.raw_mb", c.rawB/1e6)
	rep.perLayer("transport.failures", float64(c.failures))
	rep.perLayer("shuffle.served_mb", c.servedB/1e6)
	rep.perLayer("shuffle.fetch_retries", float64(c.retries))
	rep.perLayer("shuffle.fetch_fallbacks", float64(c.fallbacks))
	rep.perLayer("loadgen.failed_frac", failedFrac)
	rep.perLayer("loadgen.reconciled", float64(reconciled))
	rep.perLayer("trace.stamps_missing", float64(o.stampsMissing))
	rep.perLayer("trace.ack_clamped", float64(o.ackClamped))
	if len(o.openLate) > 0 {
		rep.perLayer("loadgen.late_p99_ms", percentile(o.openLate, 99))
		rep.perLayer("loadgen.late_max_ms", percentile(o.openLate, 100))
		rep.say("loadgen_late_p99_ms", percentile(o.openLate, 99), "ms")
	}
	var reads []float64
	for _, ch := range o.checks {
		reads = append(reads, ms(ch.readTime))
	}
	if len(reads) > 0 {
		rep.perLayer("localrt.result_read_ms", median(reads))
	}
	rep.runMedian = map[string]float64{}
	for k, xs := range runByKind {
		rep.runMedian[cfg.Mix[k].Label] = median(xs)
	}

	if tr != nil {
		t0 := time.Now()
		tiled, self, err := tile(tr.spans)
		if err != nil {
			rep.fail("span tiling: %v", err)
		}
		if tiled > 0 {
			for _, n := range []string{"submit", "admission", "run", "job"} {
				rep.perLayer("self."+n+"_ms", self[n]/float64(tiled))
			}
		}
		rep.perLayer("trace.jobs_tiled", float64(tiled))
		cost := time.Since(t0) + o.spanBuild
		rep.perLayer("trace.overhead_pct", 100*cost.Seconds()/o.measWall.Seconds())
	}
	return nil
}

// tally counts every front-door job as attempted, and the ones that did not
// reach exactly one StateFinished as failed. An acked job that did not fails
// the output check. It returns how many finishes were confirmed only by
// asking the master.
func tally(rep *report, jobs []jobTimes) (reconciled int) {
	for _, j := range jobs {
		rep.res.Attempted++
		if j.failed {
			rep.res.Failed++
			if j.wrong {
				rep.fail("job %d: %s", j.run.id, j.failure)
			}
		}
		if j.reconciled {
			reconciled++
		}
	}
	return reconciled
}

// closedFinishes counts the closed-phase jobs that finished within the
// phase, [start, start+d).
func closedFinishes(jobs []jobTimes, start time.Time, d time.Duration) int {
	n := 0
	for _, j := range jobs {
		if j.run.phase == "closed" && j.haveFinished && !j.failed &&
			!j.finished.Before(start) && j.finished.Sub(start) < d {
			n++
		}
	}
	return n
}

// setupLine summarises the timed set-ups for people.
func setupLine(setups []float64) string {
	return fmt.Sprintf("setups: %d, min %.5f s, median %.5f s, max %.5f s",
		len(setups), percentile(setups, 0), median(setups), percentile(setups, 100))
}

func countPhase(jobs []jobTimes, phase string) int {
	n := 0
	for _, j := range jobs {
		if j.run.phase == phase {
			n++
		}
	}
	return n
}

// simReport runs the simulator workload and turns its outcome into metrics.
func simReport(rep *report, cfg simConfig, seed int64, budget time.Duration, traced bool) error {
	o, err := runSim(cfg, seed, budget, traced)
	if err != nil {
		return err
	}
	rep.res.Attempted = o.jobs
	if o.stalled != "" {
		rep.res.Failed = o.jobs
		rep.fail("simulation stalled: %s", o.stalled)
		return nil
	}
	if o.mismatch != "" {
		rep.fail("determinism: %s", o.mismatch)
	}
	if o.stepMatch != "" {
		rep.fail("stepping: %s", o.stepMatch)
	}
	var jcts []float64
	var avg, mk, ue, se float64
	for _, r := range o.results {
		for _, j := range r.JCTs {
			if !(j > 0) {
				rep.res.Failed++
			}
		}
		jcts = append(jcts, r.JCTs...)
		avg += r.AvgJCT * float64(len(r.JCTs))
		mk += r.Makespan
		ue += r.Eff.UECPU
		se += r.Eff.SECPU
	}
	if len(jcts) != o.jobs {
		rep.fail("%d of %d jobs finished", len(jcts), o.jobs)
	}
	ns := float64(len(o.results))
	wall := median(o.passes)
	rep.endToEnd("setup_s", median(o.setups), "s")
	rep.endToEnd("job_p50_ms", 1e3*percentile(jcts, 50), "ms")
	rep.endToEnd("jobs_per_s", float64(o.jobs)/wall, "jobs/s")
	rep.endToEnd("launch_per_s", float64(o.monotasks)/wall, "monotasks/s")
	rep.endToEnd("alloc_bytes_per_job", float64(o.allocB)/float64(o.jobs*len(o.passes)), "B/job")
	rep.say("job_p90_ms", 1e3*percentile(jcts, 90), "ms")
	rep.say("job_p99_ms", 1e3*percentile(jcts, 99), "ms")
	rep.perLayer("job.p90_ms", 1e3*percentile(jcts, 90))
	rep.perLayer("job.p99_ms", 1e3*percentile(jcts, 99))
	rep.say("sim_wall_s", wall, "s")
	rep.say("sim_avg_jct_s", avg/float64(len(jcts)), "s")
	rep.say("sim_makespan_s", mk/ns, "s")
	rep.say("sim_ue_cpu_pct", ue/ns, "%")
	rep.say("sim_se_cpu_pct", se/ns, "%")
	rep.say("sim_passes", float64(len(o.passes)), "passes")
	rep.lines = append(rep.lines, setupLine(o.setups), fmt.Sprintf("pass walls (s): %.3f", o.passes))

	rep.perLayer("sim.wall_s", wall)
	rep.perLayer("sim.avg_jct_s", avg/float64(len(jcts)))
	rep.perLayer("sim.makespan_s", mk/ns)
	rep.perLayer("sim.ue_cpu_pct", ue/ns)
	rep.perLayer("sim.se_cpu_pct", se/ns)
	if traced && len(o.steps) > 0 {
		rep.perLayer("sim.step_p50_ms", percentile(o.steps, 50))
		rep.perLayer("sim.step_p99_ms", percentile(o.steps, 99))
		rep.perLayer("sim.steps", float64(len(o.steps)))
		rep.perLayer("core.queued_jobs_mean", mean(o.queued))
		rep.perLayer("eventloop.pending_mean", mean(o.pending))
		var stepWall float64
		for _, s := range o.steps {
			stepWall += s / 1e3
		}
		rep.perLayer("trace.overhead_pct", 100*(stepWall-wall)/wall)
	}
	return nil
}

// probeLayers runs the standalone layer probes of the traced run.
func probeLayers(rep *report, seed int64, workDir string) error {
	kinds := allKinds(seed)
	labels := make([]string, 0, len(kinds))
	for l := range kinds {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		b, err := buildMs(kinds[l], 5)
		if err != nil {
			return err
		}
		d, err := directMs(kinds[l], 3)
		if err != nil {
			return err
		}
		rep.perLayer("workload.build_ms."+l, b)
		rep.perLayer("localrt.direct_ms."+l, d)
		if run, ok := rep.runMedian[l]; ok {
			rep.perLayer("run.overhead_ms."+l, run-d)
		}
	}
	appendUs, p50, p99, err := journalProbe(workDir, 200, 8, 96)
	if err != nil {
		return err
	}
	rep.perLayer("journal.append_us", appendUs)
	rep.perLayer("journal.sync_p50_ms", p50)
	rep.perLayer("journal.sync_p99_ms", p99)
	rep.perLayer("core.tick_us", tickUs(simTPCHConfig().Machines, 48, 8, 200))
	return nil
}

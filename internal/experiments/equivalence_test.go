package experiments

import (
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/workload"
)

// System-level equivalence for the sub-linear placement path on realistic
// workloads: the top-K candidate index with K ≥ W must reproduce the exact
// scheduler's results bit for bit, JCT by JCT, on the paper cluster.

// placementVariants are the optimized configurations that must be exact.
func placementVariants() []struct {
	name string
	mod  func(*core.Config)
} {
	return []struct {
		name string
		mod  func(*core.Config)
	}{
		{"topk-exact", func(c *core.Config) { c.CandidateWorkers = 1 << 20 }},
	}
}

// assertSameResult demands bit-identical aggregate metrics and JCT vectors.
func assertSameResult(t *testing.T, name string, want, got Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Errorf("%s: makespan %v != exact %v", name, got.Makespan, want.Makespan)
	}
	if got.AvgJCT != want.AvgJCT {
		t.Errorf("%s: avgJCT %v != exact %v", name, got.AvgJCT, want.AvgJCT)
	}
	if got.Eff != want.Eff {
		t.Errorf("%s: efficiency %+v != exact %+v", name, got.Eff, want.Eff)
	}
	if len(got.JCTs) != len(want.JCTs) {
		t.Fatalf("%s: %d JCTs, exact has %d", name, len(got.JCTs), len(want.JCTs))
	}
	for i := range want.JCTs {
		if got.JCTs[i] != want.JCTs[i] {
			t.Errorf("%s: job %d JCT %v != exact %v", name, i, got.JCTs[i], want.JCTs[i])
		}
	}
}

func runEquivalence(t *testing.T, gen func() *workload.Workload, base core.Config) {
	t.Helper()
	runEquivalenceOn(t, gen, base, paperCluster())
}

func runEquivalenceOn(t *testing.T, gen func() *workload.Workload, base core.Config, clusCfg cluster.Config) {
	t.Helper()
	want := RunUrsa(gen(), base, clusCfg, 0)
	for _, v := range placementVariants() {
		cfg := base
		v.mod(&cfg)
		got := RunUrsa(gen(), cfg, clusCfg, 0)
		assertSameResult(t, v.name, want, got)
	}
}

// TestEquivalenceTPCH runs a small seeded TPC-H mix through every optimized
// placement configuration and demands bit-identical results.
func TestEquivalenceTPCH(t *testing.T) {
	gen := func() *workload.Workload { return workload.TPCH(6, 5*eventloop.Second, 7) }
	runEquivalence(t, gen, core.Config{})
}

// TestEquivalenceTPCHSRJF repeats the TPC-H equivalence under SRJF ordering,
// whose priority refresh feeds the cached ranks the parallel pass reads.
func TestEquivalenceTPCHSRJF(t *testing.T) {
	gen := func() *workload.Workload { return workload.TPCH(5, 4*eventloop.Second, 11) }
	runEquivalence(t, gen, core.Config{Policy: core.SRJF})
}

// TestEquivalenceSynthetic covers the §5.3 synthetic setting, where many
// jobs arrive simultaneously and ordering ties are broken purely by rank.
func TestEquivalenceSynthetic(t *testing.T) {
	gen := func() *workload.Workload { return workload.Setting1(4) }
	runEquivalence(t, gen, core.Config{})
}

// TestEquivalenceHetero re-proves the optimized paths' exactness at the
// experiment level on the contended heterogeneous testbed — the setting
// where interference-displaced measured rates feed the penalty snapshot —
// with the penalty off and on.
func TestEquivalenceHetero(t *testing.T) {
	gen := func() *workload.Workload { return workload.TPCH(4, 10*eventloop.Second, 7) }
	clusCfg := heteroPaperCluster(5, 0.1)
	runEquivalenceOn(t, gen, core.Config{Policy: core.SRJF}, clusCfg)
	runEquivalenceOn(t, gen, core.Config{Policy: core.SRJF, InterferencePenalty: true}, clusCfg)
}

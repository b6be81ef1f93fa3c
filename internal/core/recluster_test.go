package core

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/selector"
	"specsampling/internal/simpoint"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// reclusterMaxKs spans the paper's Fig 3(a) ladder plus values below,
// between and above it: MaxK 1 (a single candidate), odd MaxK the stored
// grid lacks, and MaxK 40 past the stored default of 35.
var reclusterMaxKs = []int{1, 5, 11, 15, 20, 25, 30, 35, 40}

// freshCluster is what Recluster must reproduce: simpoint.Cluster at maxK
// under the analysis's own SimPoint parameters.
func freshCluster(t *testing.T, an *Analysis, maxK int) *simpoint.Result {
	t.Helper()
	cfg := an.Config
	cfg.SimPoint.MaxK = maxK
	res, err := simpoint.Cluster(an.Prog.Name, an.Slices, an.TotalInstrs,
		selector.SimPointParams(cfg.selectorConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameResult asserts the fields a MaxK sweep reads are identical.
func requireSameResult(t *testing.T, label string, got, want *simpoint.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("%s: points differ:\n got: %+v\nwant: %+v", label, got.Points, want.Points)
	}
	if !reflect.DeepEqual(got.BIC, want.BIC) {
		t.Fatalf("%s: BIC differs:\n got: %v\nwant: %v", label, got.BIC, want.BIC)
	}
	if math.Float64bits(got.AvgClusterVariance) != math.Float64bits(want.AvgClusterVariance) {
		t.Fatalf("%s: AvgClusterVariance %v != %v", label, got.AvgClusterVariance, want.AvgClusterVariance)
	}
	if got.Config != want.Config {
		t.Fatalf("%s: config %+v != %+v", label, got.Config, want.Config)
	}
}

// TestReclusterMatchesCluster pins the ladder behind Recluster: at every
// MaxK, whether the analysis came from a warm store, a cold run or a
// struct literal whose Result carries no BIC scores, and at every worker
// budget, Recluster equals a fresh simpoint.Cluster at that MaxK.
func TestReclusterMatchesCluster(t *testing.T) {
	spec, err := workload.ByName("505.mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(workload.ScaleSmall)
		cfg.Workers = workers
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AnalyzeStored(tctx, spec, cfg, st); err != nil {
			t.Fatal(err)
		}
		warm, err := AnalyzeStored(tctx, spec, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Analyze(tctx, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		unscored := *cold.Result
		unscored.BIC = nil
		literal := &Analysis{Spec: spec, Prog: cold.Prog, Config: cfg,
			Slices: cold.Slices, TotalInstrs: cold.TotalInstrs, Result: &unscored}

		for _, maxK := range reclusterMaxKs {
			want := freshCluster(t, cold, maxK)
			for _, tc := range []struct {
				name string
				an   *Analysis
			}{{"warm", warm}, {"cold", cold}, {"literal", literal}} {
				got, err := tc.an.Recluster(tctx, maxK)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, tc.name+"/workers="+strconv.Itoa(workers)+"/maxk="+strconv.Itoa(maxK), got, want)
			}
		}
	}
}

// TestReclusterRunsOnlyUnscoredCandidates pins the saving itself: over a
// stored analysis the paper's Fig 3(a) sweep runs k-means for the two
// candidates the stored MaxK-35 grid lacks (15 and 25) plus at most one
// chosen k per MaxK below 35, and returns the stored Result at MaxK 35.
func TestReclusterRunsOnlyUnscoredCandidates(t *testing.T) {
	an := analyzeBench(t, "623.xalancbmk_s")
	runs := obs.GetCounter("kmeans.runs")
	before := runs.Value()
	for _, maxK := range []int{15, 20, 25, 30, 35} {
		res, err := an.Recluster(tctx, maxK)
		if err != nil {
			t.Fatal(err)
		}
		if maxK == an.Config.SimPoint.MaxK && res != an.Result {
			t.Error("Recluster at the analysis's own MaxK did not return its Result")
		}
	}
	if n := runs.Value() - before; n == 0 || n > 2+4 {
		t.Errorf("Fig 3(a) sweep ran %d k-means fits, want 1..6", n)
	}
}

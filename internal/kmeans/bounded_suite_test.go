package kmeans_test

import (
	"math"
	"strconv"
	"testing"

	"specsampling/internal/kmeans"
	"specsampling/internal/obs"
	"specsampling/internal/simpoint"
	"specsampling/internal/workload"
)

// requireIdenticalResults is the external-package twin of the in-package
// requireIdentical helper: bit-level equality of every Result field.
func requireIdenticalResults(t *testing.T, a, b *kmeans.Result, label string) {
	t.Helper()
	if a.K != b.K {
		t.Fatalf("%s: K %d != %d", label, a.K, b.K)
	}
	if math.Float64bits(a.WCSS) != math.Float64bits(b.WCSS) {
		t.Fatalf("%s: WCSS %v != %v", label, a.WCSS, b.WCSS)
	}
	if len(a.Assign) != len(b.Assign) {
		t.Fatalf("%s: assign lengths %d != %d", label, len(a.Assign), len(b.Assign))
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("%s: assign[%d] %d != %d", label, i, a.Assign[i], b.Assign[i])
		}
	}
	if len(a.Centroids) != len(b.Centroids) {
		t.Fatalf("%s: centroid counts %d != %d", label, len(a.Centroids), len(b.Centroids))
	}
	for c := range a.Centroids {
		for j := range a.Centroids[c] {
			if math.Float64bits(a.Centroids[c][j]) != math.Float64bits(b.Centroids[c][j]) {
				t.Fatalf("%s: centroid[%d][%d] %v != %v", label, c, j, a.Centroids[c][j], b.Centroids[c][j])
			}
		}
	}
	if len(a.Sizes) != len(b.Sizes) {
		t.Fatalf("%s: size counts %d != %d", label, len(a.Sizes), len(b.Sizes))
	}
	for c := range a.Sizes {
		if a.Sizes[c] != b.Sizes[c] {
			t.Fatalf("%s: sizes[%d] %d != %d", label, c, a.Sizes[c], b.Sizes[c])
		}
	}
}

// suiteFixturePoints reproduces simpoint.Cluster's exact input for a real
// suite workload at small scale: profile the program into BBV slices of
// sliceLen instructions, then L1-normalise and randomly project each vector
// (simpoint.Project). These are the points the production pipeline actually
// clusters, so pinning bounded-vs-plain identity here pins the pipeline,
// not just synthetic Gaussians.
func suiteFixturePoints(t testing.TB, name string, sliceLen, seed uint64) [][]float64 {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(workload.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	slices, _, err := simpoint.Profile(prog, sliceLen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simpoint.DefaultConfig(sliceLen)
	cfg.Seed = seed
	points, err := simpoint.Project(slices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestBoundedMatchesPlainOnSuiteFixtures pins the pipeline's own inputs:
// on real suite BBV fixtures the bounded kernel must produce byte-identical
// assignments, centroids, WCSS and BIC scores to the plain Lloyd path, for
// both Run and the BestK sweep and for every worker count. The xalancbmk
// case is the Fig 3(b) workload at its 15 M slice size: more points than
// SampleSize, so training runs on a subsample and assignMatrix labels every
// point. Runs under -race via the Makefile racesmoke target.
func TestBoundedMatchesPlainOnSuiteFixtures(t *testing.T) {
	cases := []struct {
		name string
		runK int
		load func(t testing.TB) [][]float64
	}{
		{"perlbench_r", 8, smallScaleFixture("perlbench_r")},
		{"mcf_r", 8, smallScaleFixture("mcf_r")},
		{"lbm_r", 8, smallScaleFixture("lbm_r")},
		{"623.xalancbmk_s-15M", simpoint.DefaultMaxK, xalancFig3bPoints},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			points := tc.load(t)
			cfg := kmeans.DefaultConfig(simpoint.DefaultSeed)
			cfg.Workers = 1
			plain, err := kmeans.RunPlain(points, tc.runK, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plainBest, plainBIC, err := kmeans.BestKPlain(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				wcfg := cfg
				wcfg.Workers = workers
				label := tc.name + "/workers=" + strconv.Itoa(workers)
				bounded, err := kmeans.Run(points, tc.runK, wcfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalResults(t, plain, bounded, label+"/run")
				best, bic, err := kmeans.BestK(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, wcfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalResults(t, plainBest, best, label+"/bestk")
				for k, v := range plainBIC {
					if math.Float64bits(bic[k]) != math.Float64bits(v) {
						t.Fatalf("%s: BIC[%d] %v != %v", label, k, bic[k], v)
					}
				}
			}
		})
	}
}

// smallScaleFixture loads a suite workload's points at the small scale's
// default slice length.
func smallScaleFixture(name string) func(testing.TB) [][]float64 {
	return func(t testing.TB) [][]float64 {
		return suiteFixturePoints(t, name, workload.ScaleSmall.SliceLen, simpoint.DefaultSeed)
	}
}

// xalancFig3bPoints is the Figure 3 subject profiled at Fig 3(b)'s smallest
// slice size (15 M instructions, mapped to small scale): the largest point
// set the sweep clusters, and one above kmeans.DefaultConfig's SampleSize,
// so training runs on a subsample and assignMatrix labels every point.
func xalancFig3bPoints(t testing.TB) [][]float64 {
	t.Helper()
	sliceLen := workload.ScaleSmall.SliceLenForPaperSize(15_000_000)
	points := suiteFixturePoints(t, "623.xalancbmk_s", sliceLen, simpoint.DefaultSeed)
	if n, s := len(points), kmeans.DefaultConfig(0).SampleSize; n <= s {
		t.Fatalf("xalancbmk 15M fixture has %d points, want more than SampleSize %d", n, s)
	}
	return points
}

// TestBoundedSkipRatioOnFig3bFixture holds the kernel to the share of work
// it exists to save: over one MaxK-35 BestK on the Fig 3(b) workload, at
// least three in four counted point-iterations must be skips rather than
// scans (first-iteration scans included). A scan is one full pass over all
// k centroids for one point; both counts are deterministic for a given
// input and seed.
func TestBoundedSkipRatioOnFig3bFixture(t *testing.T) {
	points := xalancFig3bPoints(t)
	skips, scans := obs.GetCounter("kmeans.bounds_skips"), obs.GetCounter("kmeans.bounds_scans")
	skip0, scan0 := skips.Value(), scans.Value()
	cfg := kmeans.DefaultConfig(simpoint.DefaultSeed)
	cfg.Workers = 1
	if _, _, err := kmeans.BestK(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, cfg); err != nil {
		t.Fatal(err)
	}
	sk, sn := skips.Value()-skip0, scans.Value()-scan0
	ratio := float64(sk) / float64(sk+sn)
	t.Logf("skips %d, scans %d, skip ratio %.3f", sk, sn, ratio)
	if ratio < 0.75 {
		t.Errorf("skip ratio %.3f below 0.75 (%d skips, %d scans)", ratio, sk, sn)
	}
}

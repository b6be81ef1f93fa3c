package kmeans_test

import (
	"math"
	"strconv"
	"testing"

	"specsampling/internal/kmeans"
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
// suite workload at a reduced scale: profile the program into BBV slices,
// then L1-normalise and randomly project each vector (simpoint.Project). These are the points
// the production pipeline actually clusters, so pinning bounded-vs-plain
// identity here pins the pipeline, not just synthetic Gaussians.
func suiteFixturePoints(t *testing.T, name string, seed uint64) [][]float64 {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(workload.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	slices, _, err := simpoint.Profile(prog, workload.ScaleSmall.SliceLen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simpoint.DefaultConfig(workload.ScaleSmall.SliceLen)
	cfg.Seed = seed
	points, err := simpoint.Project(slices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestBoundedMatchesPlainOnSuiteFixtures is the satellite determinism test:
// on real suite BBV fixtures the bounded kernel must produce byte-identical
// assignments, centroids and WCSS to the plain Lloyd path, for both Run and
// the BestK sweep and for every worker count. Runs under -race via the
// Makefile racesmoke target.
func TestBoundedMatchesPlainOnSuiteFixtures(t *testing.T) {
	for _, name := range []string{"perlbench_r", "mcf_r", "lbm_r"} {
		t.Run(name, func(t *testing.T) {
			points := suiteFixturePoints(t, name, simpoint.DefaultSeed)
			cfg := kmeans.DefaultConfig(simpoint.DefaultSeed)
			cfg.Workers = 1
			plain, err := kmeans.RunPlain(points, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plainBest, _, err := kmeans.BestKPlain(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				wcfg := cfg
				wcfg.Workers = workers
				bounded, err := kmeans.Run(points, 8, wcfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalResults(t, plain, bounded, name+"/run/workers="+strconv.Itoa(workers))
				best, _, err := kmeans.BestK(points, simpoint.DefaultMaxK, simpoint.DefaultBICThreshold, wcfg)
				if err != nil {
					t.Fatal(err)
				}
				requireIdenticalResults(t, plainBest, best, name+"/bestk/workers="+strconv.Itoa(workers))
			}
		})
	}
}

package kmeans

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

// requireSameScores asserts two BIC maps hold the same keys and bits.
func requireSameScores(t *testing.T, got, want map[int]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if math.Float64bits(got[k]) != math.Float64bits(v) {
			t.Fatalf("%s: BIC[%d] %v != %v", label, k, got[k], v)
		}
	}
}

// TestLadderMatchesBestK pins the memo's soundness: one ladder picked at a
// sequence of maxK values, in an order that revisits and interleaves its
// rungs, returns at each maxK exactly what a fresh BestK returns.
func TestLadderMatchesBestK(t *testing.T) {
	points, _ := gaussianClusters(5, 60, 6, 0.35, 41)
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(7)
		cfg.Workers = workers
		l, err := NewLadder(points, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxK := range []int{12, 5, 15, 1, 20, 11, 12} {
			label := "workers=" + strconv.Itoa(workers) + "/maxk=" + strconv.Itoa(maxK)
			want, wantBIC, err := BestK(points, maxK, 0.9, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, gotBIC, err := l.BestK(maxK, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, got, label)
			requireSameScores(t, gotBIC, wantBIC, label)
		}
	}
}

// TestLadderSeededRunsOnlyUnscored pins the saving: a ladder seeded with a
// BestK's scores at maxK 20 runs, for maxK 15, only the one candidate the
// maxK-20 grid lacks (15) plus the chosen k, and still matches BestK.
func TestLadderSeededRunsOnlyUnscored(t *testing.T) {
	points, _ := gaussianClusters(4, 70, 5, 0.3, 43)
	cfg := DefaultConfig(9)
	_, scores, err := BestK(points, 20, 0.9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLadder(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.SeedScores(scores)
	before := runCounter.Value()
	got, gotBIC, err := l.BestK(15, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if n := runCounter.Value() - before; n != 2 {
		t.Errorf("seeded ladder ran %d k-means fits, want 2 (k=15 and the chosen k)", n)
	}
	want, wantBIC, err := BestK(points, 15, 0.9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got, "seeded")
	requireSameScores(t, gotBIC, wantBIC, "seeded")
}

// TestLadderConcurrentPicks shares one ladder between goroutines picking
// at different maxK; under -race this pins that the memo is guarded, and
// every pick must still match a fresh BestK.
func TestLadderConcurrentPicks(t *testing.T) {
	points, _ := gaussianClusters(4, 50, 4, 0.3, 47)
	cfg := DefaultConfig(11)
	cfg.Workers = 2
	l, err := NewLadder(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxKs := []int{6, 10, 13, 10, 16, 6}
	got := make([]*Result, len(maxKs))
	errs := make([]error, len(maxKs))
	var wg sync.WaitGroup
	for i, maxK := range maxKs {
		wg.Add(1)
		go func(i, maxK int) {
			defer wg.Done()
			got[i], _, errs[i] = l.BestK(maxK, 0.9)
		}(i, maxK)
	}
	wg.Wait()
	for i, maxK := range maxKs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, _, err := BestK(points, maxK, 0.9, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, want, got[i], "maxk="+strconv.Itoa(maxK))
	}
}

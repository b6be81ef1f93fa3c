package kmeans

import (
	"fmt"
	"math"

	"specsampling/internal/bbv"
	"specsampling/internal/rng"
)

// RunWeighted clusters points that carry non-negative weights: centroids
// are weighted means and WCSS is weight-scaled. This is the engine behind
// variable-length-interval SimPoint (Hamerly et al., "SimPoint 3.0",
// discussed in the paper's Section V-B): when execution slices have unequal
// lengths, each slice must influence the clustering in proportion to the
// instructions it represents.
//
// Weights must be non-negative with a positive sum. Zero-weight points are
// still assigned to their nearest centroid but do not attract centroids.
func RunWeighted(points [][]float64, weights []float64, k int, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if len(weights) != len(points) {
		return nil, fmt.Errorf("kmeans: %d weights for %d points", len(weights), len(points))
	}
	var wsum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("kmeans: invalid weight %v at %d", w, i)
		}
		wsum += w
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("kmeans: all weights are zero")
	}
	if k <= 0 {
		return nil, fmt.Errorf("kmeans: k = %d", k)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	if k > len(points) {
		k = len(points)
	}
	cfg = cfg.Normalize()
	runCounter.Add(1)

	r := rng.New(cfg.Seed ^ 0x77656967)
	var best *Result
	for restart := 0; restart < cfg.Restarts; restart++ {
		restartCounter.Add(1)
		res := lloydWeighted(points, weights, k, cfg.MaxIter, &r)
		if best == nil || res.WCSS < best.WCSS {
			best = res
		}
	}
	return best, nil
}

// lloydWeighted runs one weighted k-means++ initialisation plus Lloyd
// iterations with weighted centroid updates.
func lloydWeighted(points [][]float64, weights []float64, k, maxIter int, r *rng.RNG) *Result {
	dim := len(points[0])
	centroids := seedPlusPlusWeighted(points, weights, k, r)
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	wmass := make([]float64, len(centroids))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for c := range wmass {
			wmass[c] = 0
		}
		for i, p := range points {
			bestC, bestD := 0, math.MaxFloat64
			for c, cent := range centroids {
				if d := bbv.SqDist(p, cent); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
			wmass[bestC] += weights[i]
		}
		if !changed && iter > 0 {
			break
		}
		next := make([][]float64, len(centroids))
		for c := range next {
			next[c] = make([]float64, dim)
		}
		for i, p := range points {
			w := weights[i]
			if w == 0 {
				continue
			}
			cent := next[assign[i]]
			for j, x := range p {
				cent[j] += x * w
			}
		}
		for c := range centroids {
			if wmass[c] == 0 {
				// Re-seed dead centroids at the heaviest-cost point.
				far, farD := 0, -1.0
				for i, p := range points {
					d := weights[i] * bbv.SqDist(p, centroids[assign[i]])
					if d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], points[far])
				continue
			}
			inv := 1 / wmass[c]
			for j := range next[c] {
				centroids[c][j] = next[c][j] * inv
			}
		}
	}
	res := assignAll(points, centroids)
	// Recompute WCSS with weights so model comparison is weight-aware.
	var wcss float64
	for i, p := range points {
		wcss += weights[i] * bbv.SqDist(p, res.Centroids[res.Assign[i]])
	}
	res.WCSS = wcss
	return res
}

// seedPlusPlusWeighted is k-means++ with weight-scaled D² sampling.
func seedPlusPlusWeighted(points [][]float64, weights []float64, k int, r *rng.RNG) [][]float64 {
	centroids := make([][]float64, 0, k)
	first := points[weightedPick(weights, r)]
	centroids = append(centroids, append([]float64(nil), first...))

	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = weights[i] * bbv.SqDist(p, centroids[0])
	}
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var idx int
		if total <= 0 {
			idx = r.Intn(len(points))
		} else {
			target := r.Float64() * total
			acc := 0.0
			idx = len(points) - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		c := append([]float64(nil), points[idx]...)
		centroids = append(centroids, c)
		for i, p := range points {
			if d := weights[i] * bbv.SqDist(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// BestKWeighted is BestK for weighted points: it evaluates the same
// candidate k grid with RunWeighted and scores candidates with BIC over the
// weighted WCSS (an approximation — the point count, not the weight mass,
// enters the complexity penalty — adequate for model selection). Candidate
// runs execute in parallel like BestK's, through the same Ladder.
func BestKWeighted(points [][]float64, weights []float64, maxK int, threshold float64, cfg Config) (*Result, map[int]float64, error) {
	if err := validatePoints(points, 1); err != nil {
		return nil, nil, err
	}
	return newLadder(len(points), len(points[0]), cfg, func(k int, sub Config) (*Result, error) {
		return RunWeighted(points, weights, k, sub)
	}).BestK(maxK, threshold)
}

// weightedPick samples an index with probability proportional to weight.
func weightedPick(weights []float64, r *rng.RNG) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	target := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if acc >= target {
			return i
		}
	}
	return len(weights) - 1
}

package simpoint

import (
	"math"
	"sort"

	"specsampling/internal/bbv"
	"specsampling/internal/kmeans"
)

// ClusterWeighted is the variable-length-interval variant of Cluster
// (SimPoint 3.0, Hamerly et al. — discussed in the paper's Section V-B):
// each slice influences the clustering in proportion to its instruction
// count, and a simulation point's weight is its cluster's *instruction*
// share rather than its slice-count share.
//
// For the fixed-length slices the default profiler cuts, the two variants
// agree to within the final short slice; ClusterWeighted is the correct
// formulation when slice lengths vary substantially.
func ClusterWeighted(benchmark string, slices []Slice, totalInstrs uint64, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	points, err := Project(slices, cfg)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(slices))
	for i, s := range slices {
		weights[i] = float64(s.Len)
	}
	res, scores, err := kmeans.BestKWeighted(points, weights, cfg.MaxK, cfg.BICThreshold, cfg.kmeansConfig())
	if err != nil {
		return nil, err
	}
	pts := chooseWeightedPoints(slices, points, res)
	return &Result{
		Benchmark:          benchmark,
		Config:             cfg,
		NumSlices:          len(slices),
		TotalInstrs:        totalInstrs,
		Points:             pts,
		BIC:                scores,
		AvgClusterVariance: res.WCSS / float64(totalInstrs),
	}, nil
}

// chooseWeightedPoints picks the centroid-nearest slice per cluster and
// weights it by the cluster's instruction mass.
func chooseWeightedPoints(slices []Slice, projected [][]float64, res *kmeans.Result) []Point {
	best := make([]int, res.K)
	bestD := make([]float64, res.K)
	instrMass := make([]float64, res.K)
	for c := range best {
		best[c] = -1
		bestD[c] = math.MaxFloat64
	}
	var total float64
	for i, p := range projected {
		c := res.Assign[i]
		instrMass[c] += float64(slices[i].Len)
		total += float64(slices[i].Len)
		if d := bbv.SqDist(p, res.Centroids[c]); d < bestD[c] {
			best[c], bestD[c] = i, d
		}
	}
	pts := make([]Point, 0, res.K)
	for c, idx := range best {
		if idx < 0 {
			continue
		}
		s := slices[idx]
		pts = append(pts, Point{
			SliceIndex: s.Index,
			Start:      s.Start,
			Len:        s.Len,
			Weight:     instrMass[c] / total,
			Cluster:    c,
		})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].SliceIndex < pts[j].SliceIndex })
	return pts
}

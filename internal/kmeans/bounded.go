package kmeans

import (
	"math"

	"specsampling/internal/obs"
)

// The bounded kernel: Elkan-style triangle-inequality bounds that skip the
// scan over all k centroids for points provably still closest to their
// assigned centroid, plus k-means++ seeding that skips distances the
// triangle inequality proves cannot lower a point's D² weight.
//
// Per-centroid lower bounds. For every point i and centroid c the kernel
// keeps lb[i·k+c], a lower bound on the distance (not squared) from the
// point to c. A full scan fills the whole row: √dist − margin for each
// centroid it computes, and |‖x‖−‖c‖| − margin for each centroid the norm
// test prunes (|‖x‖−‖c‖| ≤ d(x, c)). After every update step a bound
// decays by its own centroid's movement plus the margin (a centroid that
// moved by m cannot have come more than m closer). The decay is kept as a
// cumulative per-centroid offset, drift[c]: a row stores bound + drift[c]
// at scan time, and the live bound is lb[i·k+c] − drift[c], so one
// iteration's decay costs O(k), not O(n·k). The assigned centroid's entry
// is set to +Inf: it is only read while the point stays assigned there,
// and a reassignment always goes through a full scan that rewrites the
// row.
//
// At the next iteration the kernel recomputes only the exact distance to
// the assigned centroid a (the same expression as the plain scan, O(d))
// and skips the point when either test proves every rival strictly
// farther:
//
//	separation: √d(x, a) + margin < ½·min_{c≠a} d(a, c) − margin
//	bounds:     √d(x, a) + margin < lb[i·k+c] − drift[c]   for every c ≠ a
//
// The separation test holds because d(x, c) ≥ d(a, c) − d(x, a) >
// d(x, a) whenever d(x, a) < ½·d(a, c); it is computed from the current
// centroids each iteration, after dead centroids are reseeded. A point
// that passes neither test gets the verbatim plain scan, which refreshes
// its row; there are no partial scans, because the plain scan's norm-prune
// order would make their bit-identity unprovable.
//
// Bit-identical results. The tests reason about true distances, but the
// kernels compute floating-point approximations. margin is an absolute
// slack in the distance domain chosen far above the worst-case rounding
// error of the norm-expansion distance (≲ 2·‖x‖max·√((d+3)·ε), from the
// cancellation bound of ‖x‖²−2x·c+‖c‖² followed by √). Every quantity a
// test compares is deflated (bounds, separation) or inflated (the assigned
// distance) by margin, and every decay step adds margin, which also covers
// the roundings of the movement, the offset sums and the direct-form
// centroid distances (relative errors of order (d+2)·ε on values at most
// 2·‖x‖max). Whenever a test passes, each rival is truly farther than the
// assigned centroid by more than the rounding error of either computed
// distance, so the plain scan provably selects the same centroid AND
// computes the same minD bits (the assigned distance is evaluated with the
// exact same expression), and a tie — where the plain scan's lowest-index
// preference matters — can never be skipped. Either way assignments, minD,
// and therefore centroid updates, WCSS and convergence are bit-identical
// to the plain kernel for every worker count — pinned by the
// TestBoundedMatchesPlain* tests and FuzzBoundedMatchesPlain.
//
// Pruned seeding. k-means++ keeps d2[i], the direct-form squared distance
// from point i to its nearest chosen centre, and draws each next centre
// from those weights. The pruned seeding also records near[i], the centre
// that set d2[i]; a new centre c is provably no closer when
// d(near, c) ≥ 2·d(x, near), since then d(x, c) ≥ d(near, c) − d(x, near) ≥
// d(x, near). The test runs on computed squared distances, whose direct
// form has relative error at most γ = (d+1)·ε/(1−(d+1)·ε) because every
// summand is non-negative. Skipping is sound when cc ≥ 4·d2·(1+γ)/(1−γ)
// ≈ 4·d2·(1+2γ), for cc the computed squared centre-to-centre distance;
// seedSlack(d) = 4·(1+64·(d+2)·ε) covers that with room for the test's own
// roundings. An absolute seedFloor absorbs underflow, and an overflowed cc
// never prunes. A skipped distance is one the plain loop would have
// computed and discarded, so d2 and every RNG draw are unchanged.
//
// Memory. The bounds cost n×k float64 per pooled scratch; the training set
// is capped at SampleSize points, so a MaxK-35 sweep holds at most
// 4096×35×8 B ≈ 1.1 MB per concurrent candidate run. On the Fig 3(b)
// xalancbmk fixture (4278 slices of 15 M instructions) one MaxK-35 BestK
// skips 80 % of the point-iterations it counts (skips / (skips + scans),
// first-iteration scans included), against 53 % for the single Hamerly
// bound this kernel replaced.

// Bounded-kernel metrics: how many point-iterations the bounds skipped vs
// scanned (always-on atomics, added once per chunk). A scan is one full
// pass over all k centroids for one point.
var (
	boundsSkipCounter = obs.GetCounter("kmeans.bounds_skips")
	boundsScanCounter = obs.GetCounter("kmeans.bounds_scans")
)

// boundsMargin is the floating-point safety margin of the bounded kernel
// for this point set, in the (non-squared) distance domain. The worst-case
// rounding error of one norm-expansion distance is ≲ 2·maxSnorm·√((d+3)·ε);
// the factor 64 covers the handful of additional roundings accumulated by
// bound maintenance with orders of magnitude to spare, while staying far
// below any distance gap the bounds could usefully exploit.
func (m *matrix) boundsMargin() float64 {
	const eps = 0x1p-52
	return 64 * m.maxSnorm * math.Sqrt(float64(m.d+4)*eps)
}

// scanPointFull runs the plain pruned scan for point i — the exact loop of
// assignPoints, so best and bestD are bit-identical to the plain kernel —
// while additionally refreshing the point's row of per-centroid lower
// bounds (see the file comment).
func scanPointFull(m *matrix, sc *scratch, i, k int, margin float64) (best int, bestD float64) {
	d := m.d
	px := m.row(i)
	pn, ps := m.norm[i], m.snorm[i]
	lb := sc.lb[i*k : (i+1)*k]
	drift := sc.drift[:k]
	best, bestD = 0, math.MaxFloat64
	for c := 0; c < k; c++ {
		if lbc := ps - sc.csqrt[c]; lbc*lbc >= bestD {
			lb[c] = math.Abs(lbc) - margin + drift[c]
			continue
		}
		row := sc.cents[c*d : (c+1)*d]
		var dot float64
		for j, x := range px {
			dot += x * row[j]
		}
		dist := pn - 2*dot + sc.cnorm[c]
		if dist < bestD {
			best, bestD = c, dist
		}
		if dist < 0 {
			dist = 0
		}
		lb[c] = math.Sqrt(dist) - margin + drift[c]
	}
	if bestD < 0 {
		bestD = 0 // the expansion can go slightly negative at zero distance
	}
	lb[best] = math.Inf(1)
	return best, bestD
}

// assignPointsFull is the bounded kernel's full-scan pass: plain-identical
// assignment plus initial lower bounds. It runs on the first Lloyd
// iteration, when no bounds exist yet.
func assignPointsFull(m *matrix, sc *scratch, k, workers int, margin float64) {
	if workers > 1 && m.n*k*m.d < minParallelOps {
		workers = 1
	}
	parallelChunks(workers, m.n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sc.assign[i], sc.minD[i] = scanPointFull(m, sc, i, k, margin)
		}
	})
	boundsScanCounter.Add(int64(m.n))
}

// assignPointsBounded is the bounded kernel's steady-state pass: per point
// it recomputes the exact distance to the previously assigned centroid
// (with the same expression as the plain scan, so minD stays bit-exact) and
// skips the scan over the other centroids when the separation test or the
// per-centroid bounds prove they cannot win. Points that pass neither fall
// back to the full scan, which also refreshes their bounds.
func assignPointsBounded(m *matrix, sc *scratch, k, workers int, margin float64) {
	d := m.d
	if workers > 1 && m.n*k*d < minParallelOps {
		workers = 1
	}
	drift := sc.drift[:k]
	parallelChunks(workers, m.n, func(lo, hi int) {
		var cSkips, cScans int64
		for i := lo; i < hi; i++ {
			a := sc.assign[i]
			px := m.row(i)
			row := sc.cents[a*d : (a+1)*d]
			var dot float64
			for j, x := range px {
				dot += x * row[j]
			}
			da := m.norm[i] - 2*dot + sc.cnorm[a]
			if da < 0 {
				da = 0
			}
			// No other centroid can be as close: the plain scan would
			// recompute this exact distance for a and find every rival
			// strictly farther. Keep the assignment, refresh minD.
			if u := math.Sqrt(da) + margin; u < sc.half[a] || rivalsFarther(sc.lb[i*k:(i+1)*k], drift, u) {
				sc.minD[i] = da
				cSkips++
				continue
			}
			sc.assign[i], sc.minD[i] = scanPointFull(m, sc, i, k, margin)
			cScans++
		}
		// One atomic add per chunk, not per point.
		boundsSkipCounter.Add(cSkips)
		boundsScanCounter.Add(cScans)
	})
}

// rivalsFarther reports whether every live per-centroid bound in a point's
// row exceeds u. The assigned centroid's entry is +Inf and always passes; a
// NaN anywhere fails, so non-finite input always takes the plain scan.
func rivalsFarther(lb, drift []float64, u float64) bool {
	for c, l := range lb {
		if !(l-drift[c] > u) {
			return false
		}
	}
	return true
}

// refreshSeparation sets half[a] = ½·min_{c≠a} d(a, c) − margin for the
// current centroids (direct-form distances; +Inf when k is 1).
func refreshSeparation(sc *scratch, k, d int, margin float64) {
	half := sc.half[:k]
	for a := range half {
		half[a] = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		ra := sc.cents[a*d : (a+1)*d]
		for c := a + 1; c < k; c++ {
			h := 0.5*math.Sqrt(sqDist(ra, sc.cents[c*d:(c+1)*d])) - margin
			half[a] = math.Min(half[a], h)
			half[c] = math.Min(half[c], h)
		}
	}
}

// decayBounds advances every centroid's cumulative drift by its movement
// in the last update step plus the safety margin, which decays every
// point's bound on that centroid at once.
func decayBounds(sc *scratch, k, d int, margin float64) {
	for c := 0; c < k; c++ {
		mv := sqDist(sc.cents[c*d:(c+1)*d], sc.oldCents[c*d:(c+1)*d])
		sc.drift[c] += math.Sqrt(mv) + margin
	}
}

// seedFloor is the absolute slack of the pruned seeding test: far above
// the d·2⁻¹⁰⁷⁴ a direct-form sum can lose to underflow, far below any
// distance the projected points produce.
const seedFloor = 0x1p-960

// seedSlack is the relative factor of the pruned seeding test for points
// of dimension d: 4·(1 + 64·(d+2)·ε), above 4·(1+γ)/(1−γ) with room for
// the test's own roundings (see the file comment).
func seedSlack(d int) float64 {
	const eps = 0x1p-52
	return 4 * (1 + 64*float64(d+2)*eps)
}

// updateD2Pruned is seeding's D² update for the newly picked centre
// sc.cents[picked]: the plain loop's result, with the sqDist calls the
// triangle inequality proves cannot lower d2[i] skipped.
func updateD2Pruned(m *matrix, sc *scratch, picked int) {
	d := m.d
	c := sc.cents[picked*d : (picked+1)*d]
	cc := sc.seedCC[:picked]
	for j := range cc {
		cc[j] = sqDist(sc.cents[j*d:(j+1)*d], c)
	}
	slack := seedSlack(d)
	for i, di := range sc.d2 {
		if ccn := cc[sc.near[i]]; ccn <= math.MaxFloat64 && ccn >= slack*di+seedFloor {
			continue
		}
		if dd := sqDist(m.row(i), c); dd < di {
			sc.d2[i] = dd
			sc.near[i] = picked
		}
	}
}

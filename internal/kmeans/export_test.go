package kmeans

// Test-only bridges to the plain (pre-bounds) reference kernel. The bounded
// kernel's contract is bit-identity with this path; the TestBoundedMatches*
// tests in this package and the suite-fixture tests in bounded_suite_test.go
// (package kmeans_test) compare the two through these hooks.

// RunPlain clusters with the plain Lloyd kernel (no triangle-inequality
// bounds) — the reference implementation the determinism tests pin the
// bounded default against.
func RunPlain(points [][]float64, k int, cfg Config) (*Result, error) {
	if err := validatePoints(points, k); err != nil {
		return nil, err
	}
	return runFlat(flatten(points), k, cfg, nil, false)
}

// BestKPlain is BestK running every candidate through the plain kernel.
func BestKPlain(points [][]float64, maxK int, threshold float64, cfg Config) (*Result, map[int]float64, error) {
	if err := validatePoints(points, 1); err != nil {
		return nil, nil, err
	}
	return newLadder(len(points), len(points[0]), cfg, func(k int, sub Config) (*Result, error) {
		return RunPlain(points, k, sub)
	}).BestK(maxK, threshold)
}

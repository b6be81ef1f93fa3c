package simpoint

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFiles writes the two SimPoint text files under a fresh prefix.
func writeFiles(t *testing.T, simpoints, weights string) string {
	t.Helper()
	prefix := filepath.Join(t.TempDir(), "bench")
	if err := os.WriteFile(prefix+".simpoints", []byte(simpoints), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prefix+".weights", []byte(weights), 0o644); err != nil {
		t.Fatal(err)
	}
	return prefix
}

// TestReadFilesRejectsBadValues pins the decoder's value checks: slice
// indices must be non-negative integers and weights finite and
// non-negative, and every rejection names the offending file and line.
func TestReadFilesRejectsBadValues(t *testing.T) {
	for _, tc := range []struct {
		name, simpoints, weights, where string
	}{
		{"nan index", "3 0\nNaN 1\n", "0.5 0\n0.5 1\n", ".simpoints:2"},
		{"inf index", "+Inf 0\n", "1 0\n", ".simpoints:1"},
		{"negative index", "\n-1 0\n", "1 0\n", ".simpoints:2"},
		{"fractional index", "2.5 0\n", "1 0\n", ".simpoints:1"},
		{"huge index", "1e19 0\n", "1 0\n", ".simpoints:1"},
		{"nan weight", "1 0\n", "NaN 0\n", ".weights:1"},
		{"inf weight", "1 0\n2 1\n", "0.5 0\n-Inf 1\n", ".weights:2"},
		{"negative weight", "1 0\n", "-0.25 0\n", ".weights:1"},
		{"id mismatch", "1 0\n\n2 1\n", "0.5 0\n0.5 7\n", ".simpoints:3 has 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFiles(writeFiles(t, tc.simpoints, tc.weights))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.where) {
				t.Errorf("error %q does not name %q", err, tc.where)
			}
		})
	}
}

// FuzzReadFiles exercises the SimPoint text-file decoder with arbitrary
// file bodies: it must never panic, and whatever it accepts must satisfy
// the value checks and survive a write/read round trip. The seed corpus
// lives in testdata/fuzz/FuzzReadFiles, so plain `go test` replays it.
func FuzzReadFiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, simpoints, weights string) {
		pts, err := parseFiles("fuzz", strings.NewReader(simpoints), strings.NewReader(weights))
		if err != nil {
			return // rejection is fine; panics are not
		}
		res := &Result{}
		for _, p := range pts {
			if p.SliceIndex < 0 || p.Weight < 0 || math.IsInf(p.Weight, 0) || math.IsNaN(p.Weight) {
				t.Fatalf("accepted out-of-range point %+v", p)
			}
			res.Points = append(res.Points, Point{SliceIndex: p.SliceIndex, Weight: p.Weight})
		}
		var sp, w bytes.Buffer
		if err := res.WriteSimpointsFile(&sp); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteWeightsFile(&w); err != nil {
			t.Fatal(err)
		}
		back, err := parseFiles("fuzz", &sp, &w)
		if err != nil {
			t.Fatalf("re-written files rejected: %v", err)
		}
		if len(back) != len(pts) {
			t.Fatalf("round trip read %d points, wrote %d", len(back), len(pts))
		}
		for i := range pts {
			// The weights file keeps six decimals.
			if back[i].SliceIndex != pts[i].SliceIndex || math.Abs(back[i].Weight-pts[i].Weight) > 1e-6 {
				t.Fatalf("round trip changed point %d: %+v -> %+v", i, pts[i], back[i])
			}
		}
	})
}

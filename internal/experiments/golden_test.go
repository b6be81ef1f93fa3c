package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specsampling/internal/workload"
)

// update regenerates the committed golden digests instead of checking them:
//
//	go test ./internal/experiments -run Golden -update
//
// A refreshed digest is a change to the reported bytes; list it, with its
// cause, in CHANGES.md.
var update = flag.Bool("update", false, "rewrite the golden digests under testdata/")

// TestReportGolden pins the bytes of each figure's -json report for one
// benchmark at small scale against a committed SHA-256, so a change that
// shifts every point the same way still fails. Each digest is that of the
// file
//
//	experiments -run RUN -scale small -bench BENCH -json FILE
//
// writes, stored as testdata/RUN_BENCH_small.sha256.
func TestReportGolden(t *testing.T) {
	for _, tc := range []struct{ run, bench string }{
		{"fig3a", "623.xalancbmk_s"},
		{"fig8", "505.mcf_r"},
		{"fig12", "505.mcf_r"},
	} {
		t.Run(tc.run, func(t *testing.T) {
			r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: []string{tc.bench}})
			if err != nil {
				t.Fatal(err)
			}
			report := NewReport()
			if err := r.RunRecorded(tctx, tc.run, report); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := report.WriteJSON(&buf, workload.ScaleSmall.Name, []string{tc.bench}); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("sha256:%x", sha256.Sum256(buf.Bytes()))

			path := filepath.Join("testdata", tc.run+"_"+tc.bench+"_small.sha256")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s: %s", path, got)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != strings.TrimSpace(string(want)) {
				t.Errorf("%s report digest %s, golden %s", tc.run, got, strings.TrimSpace(string(want)))
			}
		})
	}
}

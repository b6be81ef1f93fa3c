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

// TestFig3aGolden pins the bytes of the Figure 3(a) -json report for
// 623.xalancbmk_s at small scale against a committed SHA-256, so a change
// that shifts every MaxK point the same way still fails. The digest is that
// of the file
//
//	experiments -run fig3a -scale small -bench 623.xalancbmk_s -json FILE
//
// writes.
func TestFig3aGolden(t *testing.T) {
	const bench = "623.xalancbmk_s"
	r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: []string{bench}})
	if err != nil {
		t.Fatal(err)
	}
	report := NewReport()
	if err := r.RunRecorded(tctx, "fig3a", report); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, workload.ScaleSmall.Name, []string{bench}); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("sha256:%x", sha256.Sum256(buf.Bytes()))

	path := filepath.Join("testdata", "fig3a_"+bench+"_small.sha256")
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
		t.Errorf("fig3a report digest %s, golden %s", got, strings.TrimSpace(string(want)))
	}
}

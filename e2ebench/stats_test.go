package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// TestPercentileTenBeyond pins the reporting rule: a percentile is reported
// only when at least ten samples lie beyond it, and the sample count is
// always carried.
func TestPercentileTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0.5, false}, // 9.5 beyond the median
		{20, 0.5, true},  // exactly 10 beyond
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
	} {
		p := percentileOf(samples(c.n), c.q)
		if p.OK != c.ok || p.N != c.n {
			t.Errorf("n=%d p%g: OK=%v N=%d, want OK=%v N=%d", c.n, c.q*100, p.OK, p.N, c.ok, c.n)
		}
		if !p.OK && p.Value != 0 {
			t.Errorf("n=%d p%g: withheld percentile carries value %g", c.n, c.q*100, p.Value)
		}
	}
	if p := percentileOf(samples(100), 0.9); p.Value != quantile(samples(100), 0.9) {
		t.Errorf("p90 of 1..100 = %g, want %g", p.Value, quantile(samples(100), 0.9))
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{5, 0.5, false}, {20, 0.5, true}, {150, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		p := highestTail(samples(c.n))
		if p.Q != c.wantQ || p.OK != c.ok || p.N != c.n {
			t.Errorf("highestTail(n=%d) = p%g OK=%v N=%d, want p%g OK=%v", c.n, p.Q*100, p.OK, p.N, c.wantQ*100, c.ok)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimeUnionOfParallelChildren pins self time under parallel
// workers: a parent's self time subtracts the union of its children's
// intervals, never their sum.
func TestSelfTimeUnionOfParallelChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "iteration", Start: ms(0), End: ms(100)},
		// Two workers: [10,60) and [30,90) overlap by 30 ms; union 80 ms.
		{ID: 2, Parent: 1, Layer: "selector.select", Start: ms(10), End: ms(60)},
		{ID: 3, Parent: 1, Layer: "selector.select", Start: ms(30), End: ms(90)},
		// A grandchild inside span 3 only reduces span 3's self time.
		{ID: 4, Parent: 3, Layer: "store.put", Start: ms(40), End: ms(50)},
		// A child that outlives its parent is clipped to the parent.
		{ID: 5, Parent: 2, Layer: "store.get", Start: ms(55), End: ms(70)},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"iteration":       {Self: ms(20), Calls: 1},
		"selector.select": {Self: ms(50-5) + ms(60-10), Calls: 2},
		"store.put":       {Self: ms(10), Calls: 1},
		"store.get":       {Self: ms(15), Calls: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCoveredMergesNestedAndDisjoint(t *testing.T) {
	parent := span{Start: ms(0), End: ms(100)}
	kids := []span{
		{Start: ms(50), End: ms(60)},
		{Start: ms(0), End: ms(20)},
		{Start: ms(5), End: ms(10)},  // nested in [0,20)
		{Start: ms(20), End: ms(25)}, // touches [0,20)
		{Start: ms(90), End: ms(120)},
	}
	if got, want := covered(parent, kids), ms(25+10+10); got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(0, "iteration")
	child := tr.begin(root.ID(), "store.get")
	time.Sleep(2 * time.Millisecond)
	child.end()
	root.end()
	tr.count("store.gets", 1)
	spans, counts := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || counts["store.gets"] != 1 {
		t.Fatalf("spans %+v counts %v", spans, counts)
	}
	self := selfTimes(spans)
	if self["store.get"].Self < 2*time.Millisecond || self["iteration"].Self > self["store.get"].Self {
		t.Errorf("self times %v", self)
	}
	var nilTracer *tracer
	if s := nilTracer.begin(0, "x"); s.ID() != 0 || s.end() != 0 {
		t.Error("a nil tracer must record nothing")
	}
}

// TestErrorRateCountsRefusalsAndMismatches pins the error accounting: a
// 503, any other non-2xx response, a transport error and a digest mismatch
// each count as one failed operation.
func TestErrorRateCountsRefusalsAndMismatches(t *testing.T) {
	c := &clientLog{}
	c.op("submit", http.StatusAccepted, nil, true, "")
	c.op("submit", http.StatusServiceUnavailable, nil, true, "")
	c.op("status", http.StatusNotFound, nil, true, "")
	c.op("result", http.StatusOK, nil, false, "digest mismatch")
	c.op("events", 0, os.ErrDeadlineExceeded, true, "")
	c.op("metrics", http.StatusOK, nil, true, "")
	if c.ops.Attempted != 6 || c.ops.Failed != 4 {
		t.Fatalf("attempted %d failed %d, want 6 and 4", c.ops.Attempted, c.ops.Failed)
	}
	if c.shed != 1 {
		t.Errorf("shed = %d, want 1 (the 503)", c.shed)
	}
	if got := c.ops.errorRate(); got != 4.0/6 {
		t.Errorf("error rate %g, want %g", got, 4.0/6)
	}

	ref := outcome{Report: "r", Stats: "s", Instrs: 7}
	outs := []outcome{ref, {Report: "r", Stats: "x", Instrs: 7}, {Report: "y", Stats: "s", Instrs: 8}}
	ct := consistency(outs, ref)
	if ct.Attempted != 9 || ct.Failed != 3 {
		t.Errorf("consistency: attempted %d failed %d, want 9 and 3", ct.Attempted, ct.Failed)
	}
	var total tally
	total.add(c.ops)
	total.add(ct)
	if total.Attempted != 15 || total.Failed != 7 || total.errorRate() != 7.0/15 {
		t.Errorf("folded tally %+v", total)
	}
	if (tally{}).errorRate() != 0 {
		t.Error("error rate of nothing attempted should be 0")
	}
}

func TestVmHWMParsesProcStatus(t *testing.T) {
	got, err := vmHWMMB("Name:\te2ebench\nVmPeak:\t  900000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\n")
	if err != nil || got != 2 {
		t.Errorf("vmHWMMB = %g, %v; want 2 MB", got, err)
	}
	if _, err := vmHWMMB("Name:\te2ebench\n"); err == nil {
		t.Error("a status without VmHWM should be an error")
	}
}

// TestDaemonGapsReadEachKindOnce checks that every gap between jobs plans
// one read of each kind, and that the plan is a function of the seed.
func TestDaemonGapsReadEachKindOnce(t *testing.T) {
	a, b := newDaemonJobs(env{seed: 5}), newDaemonJobs(env{seed: 5})
	if !reflect.DeepEqual(a.gaps, b.gaps) || !reflect.DeepEqual(a.jobs, b.jobs) {
		t.Fatal("the same seed planned different jobs or reads")
	}
	if len(a.gaps) != len(a.jobs) || len(a.jobs) != len(daemonRuns)*29 {
		t.Fatalf("%d gaps for %d jobs", len(a.gaps), len(a.jobs))
	}
	for j, gap := range a.gaps {
		var seen [numReadKinds]bool
		for _, p := range gap {
			if seen[p.kind] || p.draw < 0 {
				t.Fatalf("gap %d plans %+v", j, gap)
			}
			seen[p.kind] = true
		}
	}
	if reflect.DeepEqual(a.gaps, newDaemonJobs(env{seed: 6}).gaps) {
		t.Error("another seed planned the same reads")
	}
}

// TestBenchmarkJSONMatchesProgram keeps ../BENCHMARK.json, the program's
// end-to-end metrics and layers.json in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range bench.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wls, workloadNames)
	}
	var e2e []metricDecl
	for _, m := range endToEnd {
		e2e = append(e2e, metricDecl{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(sortNamed(bench.EndToEnd), sortNamed(e2e)) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", bench.EndToEnd, e2e)
	}
	layers, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	var per []metricDecl
	for _, l := range layers {
		per = append(per, metricDecl{l.Name, l.Unit, l.Better})
		for _, w := range append(append([]string(nil), l.On...), l.Quiet...) {
			if !contains(workloadNames, w) {
				t.Errorf("layers.json %s names unknown workload %q", l.Name, w)
			}
		}
		for _, m := range l.Moves {
			if !contains([]string{"setup_s", "wall_s", "peak_rss_mb", "sim_mips", "job_p50_ms", "job_p90_ms", "read_p50_ms", "read_p90_ms"}, m) {
				t.Errorf("layers.json %s moves unknown metric %q", l.Name, m)
			}
		}
	}
	if !reflect.DeepEqual(sortNamed(bench.PerLayer), sortNamed(per)) {
		t.Errorf("BENCHMARK.json per_layer %v, layers.json %v", bench.PerLayer, per)
	}
}

// metricDecl is a metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func sortNamed(xs []metricDecl) []metricDecl {
	out := append([]metricDecl(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

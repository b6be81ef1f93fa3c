// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload (or all of them) through the pipeline's public entry
// points — experiments.Runner, core, and serve.Server.Handler — at small
// scale with a worker budget and daemon client count of nproc, checks every
// output, and prints each metric by name with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run alternates untraced and traced iterations; a traced
// iteration drives the same work through each layer's public functions,
// with spans recorded around every call, and the metrics are the per-layer
// ones (self times, counts, and the tracing overhead).
//
// Run it from the repository root with e2ebench/run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload replay_sim --seed 7 --seconds 10 --trace 1
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"specsampling/internal/workload"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"warm_sweeps", "replay_sim", "daemon_jobs"}

// An untraced run builds the workload's start store at least setupReps
// times and until the builds have taken setupBudget, and runs at least
// minIterations measured iterations, even past -seconds: each reported
// median rests on at least three set-ups and four iterations, and cheap
// set-ups are repeated more often.
const (
	setupReps     = 3
	setupBudget   = 3 * time.Second
	minIterations = 4
)

//go:embed layers.json
var layersJSON []byte

// layerSpec is one per-layer metric with the prediction of which
// end-to-end metric it should move on which workloads. layers.json also
// names each metric's layer (module) for its readers.
type layerSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
	Quiet  []string `json:"quiet"`
	Note   string   `json:"note,omitempty"`
}

// e2eSpec is one end-to-end metric.
type e2eSpec struct {
	Name, Unit, Better, Meaning string
}

// endToEnd lists the end-to-end metrics every workload reports untraced.
var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", "median time to build the store the workload starts from"},
	{"wall_s", "s", "lower", "median wall time of one iteration"},
	{"peak_rss_mb", "MB", "lower", "median over the iterations of the process's peak resident memory during one iteration"},
	{"sim_mips", "Minstr/s", "higher", "instructions the pipeline executes per iteration over wall_s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	seed := fs.Int64("seed", 1, "workload seed: every choice the benchmark makes derives from it")
	secs := fs.Int("seconds", 10, "measured seconds per run (at least one iteration always runs)")
	traced := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
		if !known(*name) {
			fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %s or all)\n", *name, strings.Join(workloadNames, ", "))
			return 2
		}
	}
	if *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	layers, err := loadLayers()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	final := result{Correct: true, Metrics: map[string]metric{}}
	if len(names) > 1 {
		fmt.Fprintln(stdout, "note: all workloads share this process, so each peak_rss_mb is the peak so far; run one workload per process for its own peak")
	}
	for _, n := range names {
		e := env{dir: filepath.Join(dir, n), seed: *seed, workers: runtime.NumCPU(), scale: workload.ScaleSmall}
		fmt.Fprintf(stdout, "== %s: seed=%d nproc=%d gomaxprocs=%d go=%s trace=%d seconds=%d\n",
			n, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *traced, *secs)
		var res result
		if *traced == 1 {
			res, err = measureTraced(ctx, n, e, time.Duration(*secs)*time.Second, layers, stdout)
		} else {
			res, err = measureUntraced(ctx, n, e, time.Duration(*secs)*time.Second, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", n, err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

func loadLayers() ([]layerSpec, error) {
	var layers []layerSpec
	if err := json.Unmarshal(layersJSON, &layers); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return layers, nil
}

func newBench(name string, e env) bench {
	switch name {
	case "warm_sweeps":
		return newWarmSweeps(e)
	case "replay_sim":
		return newReplaySim(e)
	default:
		return newDaemonJobs(e)
	}
}

// setupTimes builds the workload's start store at least n times and until
// the builds have taken budget, keeping the last, and returns each build's
// duration.
func setupTimes(ctx context.Context, b bench, dir string, n int, budget time.Duration) ([]time.Duration, error) {
	var ds []time.Duration
	var total time.Duration
	for i := 0; i < n || total < budget; i++ {
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		if err := b.setup(ctx, d); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(start))
		total += ds[i]
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return nil, err
			}
		}
	}
	return ds, nil
}

// consistency checks that every outcome reproduces the first: the same
// report bytes, the same simulated statistics and the same amount of
// simulated work.
func consistency(outs []outcome, ref outcome) tally {
	var t tally
	for i, o := range outs {
		if o.Report != "" && ref.Report != "" {
			t.check(o.Report == ref.Report, fmt.Sprintf("iteration %d: report digest %s, want %s", i+1, o.Report, ref.Report))
		}
		t.check(o.Stats == ref.Stats, fmt.Sprintf("iteration %d: statistics digest %s, want %s", i+1, o.Stats, ref.Stats))
		t.check(o.Instrs == ref.Instrs, fmt.Sprintf("iteration %d: %d instructions executed, want %d", i+1, o.Instrs, ref.Instrs))
	}
	return t
}

// resetPeakRSS hands the memory the set-ups freed back to the kernel and
// resets the kernel's peak resident set size (VmHWM) to the current one, so
// that peakRSSMB then reads the peak of what runs after the reset.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size (VmHWM) since it
// started or since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return vmHWMMB(string(b))
}

// vmHWMMB reads the VmHWM line of a /proc/<pid>/status text, in MB.
func vmHWMMB(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in the process status")
}

func walls(outs []outcome) []float64 {
	ws := make([]float64, len(outs))
	for i, o := range outs {
		ws[i] = o.Wall.Seconds()
	}
	return ws
}

// daemonLatencies pools the job and read latencies of the outcomes.
func daemonLatencies(outs []outcome) (jobs, reads []float64) {
	for _, o := range outs {
		jobs = append(jobs, millis(o.Jobs)...)
		reads = append(reads, millis(o.Reads)...)
	}
	return jobs, reads
}

func printPercentile(w io.Writer, name string, p percentile) {
	if !p.OK {
		fmt.Fprintf(w, "  %-22s n/a ms (n=%d: fewer than %d samples beyond p%g)\n", name, p.N, minTail, p.Q*100)
		return
	}
	fmt.Fprintf(w, "  %-22s %.4f ms (n=%d)\n", name, p.Value, p.N)
}

// measureUntraced builds the start store repeatedly, then runs
// untraced iterations for the measured duration and reports the
// end-to-end metrics. peak_rss_mb is the median over the iterations of
// the process's peak during one iteration: the peak is reset before each
// iteration, so neither the set-ups, whose own peak is printed beside it,
// nor another iteration sets it.
func measureUntraced(ctx context.Context, name string, e env, budget time.Duration, w io.Writer) (result, error) {
	b := newBench(name, e)
	fmt.Fprintf(w, "  inputs %s\n", b.inputs())
	setups, err := setupTimes(ctx, b, e.dir, setupReps, setupBudget)
	if err != nil {
		return result{}, err
	}
	setupRSS, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	var outs []outcome
	var rss []float64
	var measured time.Duration
	for len(outs) < minIterations || measured < budget {
		if err := resetPeakRSS(); err != nil {
			return result{}, fmt.Errorf("reset peak RSS: %w", err)
		}
		o, err := b.iterate(ctx, nil)
		if err != nil {
			return result{}, fmt.Errorf("iteration %d: %w", len(outs)+1, err)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		outs = append(outs, o)
		rss = append(rss, peak)
		measured += o.Wall
	}
	var ops tally
	for _, o := range outs {
		ops.add(o.Ops)
	}
	ops.add(consistency(outs, outs[0]))
	ops.add(b.verify(ctx))

	wall := median(walls(outs))
	m := map[string]metric{
		"setup_s":     {median(seconds(setups)), "s"},
		"wall_s":      {wall, "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"sim_mips":    {float64(outs[0].Instrs) / 1e6 / wall, "Minstr/s"},
	}
	counts := map[string]int{"setup_s": len(setups), "wall_s": len(outs), "peak_rss_mb": len(rss), "sim_mips": len(outs)}
	for _, s := range endToEnd {
		fmt.Fprintf(w, "  %-22s %.6g %s (n=%d) — %s\n", s.Name, m[s.Name].Value, s.Unit, counts[s.Name], s.Meaning)
	}
	fmt.Fprintf(w, "  %-22s %.6g MB (n=1) — peak resident memory of the process over the set-ups\n", "setup_peak_rss_mb", setupRSS)
	fmt.Fprintf(w, "  %-22s %.6g fraction (%d failed of %d operations)\n", "error_rate", ops.errorRate(), ops.Failed, ops.Attempted)
	fmt.Fprintf(w, "  samples setup_s=%s wall_s=%s peak_rss_mb=%s\n", fmtSamples(seconds(setups)), fmtSamples(walls(outs)), fmtSamples(rss))
	if name == "daemon_jobs" {
		jobs, reads := daemonLatencies(outs)
		printPercentile(w, "job_p50_ms", percentileOf(jobs, 0.5))
		printPercentile(w, "job_p90_ms", percentileOf(jobs, 0.9))
		printPercentile(w, "read_p50_ms", percentileOf(reads, 0.5))
		printPercentile(w, "read_p90_ms", percentileOf(reads, 0.9))
		t := highestTail(reads)
		fmt.Fprintf(w, "  %-22s p%g = %.4f ms (n=%d)\n", "read_tail_ms", t.Q*100, t.Value, t.N)
	}
	fmt.Fprintf(w, "  digest report=%s stats=%s instrs_per_iteration=%d\n", orNone(outs[0].Report), outs[0].Stats, outs[0].Instrs)
	printFailures(w, ops)
	return result{Correct: ops.Failed == 0, Attempted: ops.Attempted, Failed: ops.Failed, Metrics: m}, nil
}

// measureTraced builds the start store once, then alternates untraced and
// traced iterations for the measured duration and reports the per-layer
// metrics of the traced ones.
func measureTraced(ctx context.Context, name string, e env, budget time.Duration, layers []layerSpec, w io.Writer) (result, error) {
	b := newBench(name, e)
	fmt.Fprintf(w, "  inputs %s\n", b.inputs())
	setups, err := setupTimes(ctx, b, e.dir, 1, 0)
	if err != nil {
		return result{}, err
	}
	var plain, traced []outcome
	var perIter []map[string]float64
	var tracedSpans []map[string]layerTime
	var measured time.Duration
	for len(traced) == 0 || measured < budget {
		o, err := b.iterate(ctx, nil)
		if err != nil {
			return result{}, fmt.Errorf("untraced iteration %d: %w", len(plain)+1, err)
		}
		plain = append(plain, o)
		tr := newTracer()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t, err := b.iterate(ctx, tr)
		if err != nil {
			return result{}, fmt.Errorf("traced iteration %d: %w", len(traced)+1, err)
		}
		runtime.ReadMemStats(&after)
		traced = append(traced, t)
		spans, counts := tr.snapshot()
		self := selfTimes(spans)
		tracedSpans = append(tracedSpans, self)
		perIter = append(perIter, layerValues(self, counts, t, &before, &after))
		measured += o.Wall + t.Wall
	}
	var ops tally
	for _, o := range append(append([]outcome(nil), plain...), traced...) {
		ops.add(o.Ops)
	}
	ops.add(consistency(plain, plain[0]))
	ops.add(consistency(traced, plain[0]))
	ops.add(b.verify(ctx))

	m := map[string]metric{}
	for _, l := range layers {
		var vs []float64
		for _, it := range perIter {
			vs = append(vs, it[l.Name])
		}
		m[l.Name] = metric{mean(vs), l.Unit}
	}
	plainWall, tracedWall := median(walls(plain)), median(walls(traced))
	m["trace.overhead_s"] = metric{tracedWall - plainWall, "s"}
	jobs, reads := daemonLatencies(plain)
	for _, q := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"job_p50_ms", jobs, 0.5}, {"job_p90_ms", jobs, 0.9}, {"read_p50_ms", reads, 0.5}, {"read_p90_ms", reads, 0.9}} {
		if p := percentileOf(q.xs, q.q); p.OK {
			m[q.name] = metric{p.Value, "ms"}
		}
	}

	fmt.Fprintf(w, "  setup %.4f s (one build); untraced wall_s %.4f s (n=%d); traced wall_s %.4f s (n=%d); tracing overhead %+.4f s\n",
		setups[0].Seconds(), plainWall, len(plain), tracedWall, len(traced), tracedWall-plainWall)
	fmt.Fprintf(w, "  sim_mips %.6g Minstr/s from %d instructions per iteration over the untraced wall_s\n",
		float64(plain[0].Instrs)/1e6/plainWall, plain[0].Instrs)
	printLayerTable(w, tracedSpans, tracedWall)
	fmt.Fprintf(w, "  per-layer metrics (per traced iteration) and the end-to-end metrics they should move:\n")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-22s %12.6g %-8s %s\n", l.Name, m[l.Name].Value, l.Unit, prediction(l, name))
	}
	fmt.Fprintf(w, "  %-22s %.6g fraction (%d failed of %d operations)\n", "error_rate", ops.errorRate(), ops.Failed, ops.Attempted)
	fmt.Fprintf(w, "  digest report=%s stats=%s traced_stats=%s instrs_per_iteration=%d\n",
		orNone(plain[0].Report), plain[0].Stats, traced[0].Stats, plain[0].Instrs)
	printFailures(w, ops)
	return result{Correct: ops.Failed == 0, Attempted: ops.Attempted, Failed: ops.Failed, Metrics: m}, nil
}

// layerValues derives one traced iteration's per-layer metrics from its
// spans and counts.
func layerValues(self map[string]layerTime, counts map[string]float64, o outcome, before, after *runtime.MemStats) map[string]float64 {
	v := map[string]float64{}
	for layer, lt := range self {
		v[layer+"_s"] = lt.Self.Seconds()
		v[layer+"_ms"] = float64(lt.Self) / float64(time.Millisecond)
	}
	v["core.recluster_calls"] = float64(self["core.recluster"].Calls)
	for _, c := range []string{"simpoint.slices", "selector.points", "pinball.regions", "store.puts"} {
		v[c] = counts[c]
	}
	gets, hits := counts["store.gets"], counts["store.hits"]
	if o.StoreGets > 0 { // daemon jobs read the store server-side
		gets, hits = float64(o.StoreGets), float64(o.Hits)
	}
	v["store.gets"] = gets
	if gets > 0 {
		v["store.hit_ratio"] = hits / gets
	}
	v["store.put_mb"] = float64(o.PutBytes) / (1 << 20)
	v["sim.instrs"] = float64(o.Instrs)
	var wait, run time.Duration
	for _, d := range o.QueueWait {
		wait += d
	}
	for _, d := range o.Run {
		run += d
	}
	v["serve.queue_wait_ms"] = float64(wait) / float64(time.Millisecond)
	v["serve.run_ms"] = float64(run) / float64(time.Millisecond)
	v["serve.shed"] = float64(o.Shed)
	v["serve.dedup_hits"] = float64(o.DedupHits)
	v["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	v["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	return v
}

// printLayerTable prints, per layer, the self time, call count, share of
// the traced wall time and share of all self time, averaged over the traced
// iterations. With parallel workers the wall shares sum to at most
// nproc × 100 %; the self-time shares always sum to 100 %.
func printLayerTable(w io.Writer, iters []map[string]layerTime, tracedWall float64) {
	sum := map[string]layerTime{}
	for _, it := range iters {
		for k, lt := range it {
			s := sum[k]
			s.Self += lt.Self
			s.Calls += lt.Calls
			sum[k] = s
		}
	}
	names := make([]string, 0, len(sum))
	for k := range sum {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return sum[names[i]].Self > sum[names[j]].Self })
	n := float64(len(iters))
	var total float64
	for _, lt := range sum {
		total += lt.Self.Seconds() / n
	}
	fmt.Fprintf(w, "  where the time went (self time per traced iteration; 'iteration' is time no layer call covers):\n")
	for _, k := range names {
		self := sum[k].Self.Seconds() / n
		fmt.Fprintf(w, "    %-22s self %9.4f s  calls %7.1f  %6.1f%% of traced wall  %5.1f%% of self time\n",
			k, self, float64(sum[k].Calls)/n, 100*self/tracedWall, 100*self/total)
	}
	fmt.Fprintf(w, "    %-22s      %9.4f s  (%.1f%% of traced wall; up to nproc x 100%% with parallel workers)\n", "sum", total, 100*total/tracedWall)
}

// prediction renders a layer metric's prediction for the workload.
func prediction(l layerSpec, workloadName string) string {
	if len(l.Moves) == 0 {
		return l.Note
	}
	s := "should move " + strings.Join(l.Moves, ", ")
	if len(l.On) > 0 {
		s += " on " + strings.Join(l.On, ", ")
	}
	if len(l.Quiet) > 0 {
		s += "; no or little move on " + strings.Join(l.Quiet, ", ")
	}
	if l.Note != "" {
		s += " (" + l.Note + ")"
	}
	for _, q := range l.Quiet {
		if q == workloadName {
			return s + " [quiet here]"
		}
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, ",")
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

func printFailures(w io.Writer, t tally) {
	for _, r := range t.Reasons {
		fmt.Fprintf(w, "  FAILED: %s\n", r)
	}
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specsampling/internal/experiments"
	"specsampling/internal/obs"
	"specsampling/internal/sched"
	"specsampling/internal/store"
	"specsampling/internal/workload"
)

// simInstrs is the pipeline's always-on count of instructions executed
// under instrumentation (profiling, replays, whole runs, native runs). It
// is read, never written, here.
var simInstrs = obs.GetCounter("sim.instrs")

// env is what every workload is built from: the scratch directory it may
// write, the seed every choice comes from, and the load.
type env struct {
	dir     string
	seed    int64
	workers int
	scale   workload.Scale
}

// rng returns a generator for one named choice, so adding a choice never
// shifts the values another choice draws.
func (e env) rng(choice string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", e.seed, choice)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// shuffledSuite is the full suite in seed order.
func (e env) shuffledSuite(choice string) []string {
	names := workload.Names()
	e.rng(choice).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// outcome is what one iteration produced and how long it took.
type outcome struct {
	Wall time.Duration
	// Report is the digest of the iteration's report bytes
	// (experiments.Report.WriteJSON); untraced iterations only.
	Report string
	// Stats is the digest of the simulated statistics both the traced and
	// the untraced path produce; the two must agree.
	Stats string
	// Instrs is the number of instructions the pipeline executed.
	Instrs int64
	// PutBytes is how much the iteration's store grew.
	PutBytes int64
	Ops      tally
	// Daemon-only measurements: latencies, job timestamps, refusals, and
	// the store reads the daemon's jobs made server-side.
	Jobs, Reads     []time.Duration
	QueueWait, Run  []time.Duration
	Shed, DedupHits int
	StoreGets, Hits int64
}

// bench is one workload: how to build the store it starts from, and one
// iteration through the program's public entry points (tr == nil) or
// through the same calls layer by layer under spans (tr != nil).
type bench interface {
	setup(ctx context.Context, dir string) error
	iterate(ctx context.Context, tr *tracer) (outcome, error)
	// verify runs the checks that are too costly to repeat per iteration,
	// once, after the measured iterations.
	verify(ctx context.Context) tally
	// inputs describes the seed-derived inputs handed to the program.
	inputs() string
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(h[:])
}

func digestJSON(v interface{}) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

// freshDir removes and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := freshDir(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close() // the copy error is the one worth reporting
		return err
	}
	return out.Close()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil // a vanished file only undercounts a diagnostic
	})
	return n
}

// runner builds an experiments.Runner over the given benchmarks and store
// at the benchmark's scale and worker budget.
func (e env) runner(benchmarks []string, st *store.Store) (*experiments.Runner, error) {
	return experiments.New(experiments.Options{
		Scale:      e.scale,
		Benchmarks: benchmarks,
		Workers:    e.workers,
		Out:        io.Discard,
		Store:      st,
	})
}

// prewarmStore opens a store in dir and fills it with what the given
// experiments need for the given benchmarks.
func (e env) prewarmStore(ctx context.Context, dir string, benchmarks []string, ids ...string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	r, err := e.runner(benchmarks, st)
	if err != nil {
		return err
	}
	return r.Prewarm(ctx, ids...)
}

// reportBytes encodes a report the way cmd/experiments -json does.
func reportBytes(rep *experiments.Report, r *experiments.Runner) ([]byte, error) {
	var names []string
	for _, s := range r.Benchmarks() {
		names = append(names, s.Name)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, r.Scale().Name, names); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ----------------------------------------------------------- warm_sweeps --

// fig3Subject is the paper's Figure 3 benchmark, always swept.
const fig3Subject = "623.xalancbmk_s"

// sweepSubjects are the Figure 3 benchmark plus the first three other
// members of the representative subset of the root bench_test.go. The
// set is fixed and the seed only orders it: subjects drawn by seed made an
// iteration's work differ by a third from seed to seed.
var sweepSubjects = []string{fig3Subject, "520.omnetpp_r", "505.mcf_r", "557.xz_r"}

// warmSweeps runs the Figure 3(a) MaxK and 3(b) slice-size sweeps on a few
// subjects over a store that already holds their analyses and whole-run
// profiles. The sweeps bypass the store: they recluster at every MaxK and
// re-profile at every slice size.
type warmSweeps struct {
	env
	subjects []string
	store    string
}

func newWarmSweeps(e env) *warmSweeps {
	subjects := append([]string(nil), sweepSubjects...)
	e.rng("warm_sweeps/order").Shuffle(len(subjects), func(i, j int) { subjects[i], subjects[j] = subjects[j], subjects[i] })
	return &warmSweeps{env: e, subjects: subjects}
}

// setup stores the subjects' analyses and whole-run mix and cache profiles.
func (w *warmSweeps) setup(ctx context.Context, dir string) error {
	if err := freshDir(dir); err != nil {
		return err
	}
	w.store = dir
	return w.prewarmStore(ctx, dir, w.subjects, "fig7", "fig8")
}

func (w *warmSweeps) iterate(ctx context.Context, tr *tracer) (outcome, error) {
	instrs := simInstrs.Value()
	start := time.Now()
	st, err := store.Open(w.store)
	if err != nil {
		return outcome{}, err
	}
	r, err := w.runner(w.subjects, st)
	if err != nil {
		return outcome{}, err
	}
	specs := r.Benchmarks()
	var out outcome
	results := make([]*experiments.SweepResult, 0, 2*len(specs))
	if tr == nil {
		rep := experiments.NewReport()
		for _, spec := range specs {
			a, err := r.Fig3a(ctx, spec.Name, nil)
			if err != nil {
				return out, err
			}
			b, err := r.Fig3b(ctx, spec.Name, nil)
			if err != nil {
				return out, err
			}
			rep.Record("fig3a/"+spec.Name, a)
			rep.Record("fig3b/"+spec.Name, b)
			results = append(results, a, b)
		}
		out.Wall = time.Since(start)
		b, err := reportBytes(rep, r)
		if err != nil {
			return out, err
		}
		out.Report = digestBytes(b)
	} else {
		p := newProbe(tr, st, r.Config(), r.CacheConfig(), r.TimingConfig())
		root := tr.begin(0, "iteration")
		for _, spec := range specs {
			a, b, err := w.tracedSweeps(ctx, p, root.ID(), spec)
			if err != nil {
				root.end()
				return out, err
			}
			results = append(results, a, b)
		}
		root.end()
		out.Wall = time.Since(start)
	}
	out.Instrs = simInstrs.Value() - instrs
	out.Stats, err = digestJSON(results)
	return out, err
}

// tracedSweeps is Runner.Fig3a then Runner.Fig3b for one subject, call by
// call: the analysis and whole-run profiles come from the store, then each
// MaxK reclusters and each slice size re-profiles before the sampled
// replays.
func (w *warmSweeps) tracedSweeps(ctx context.Context, p *probe, parent int, spec workload.Spec) (a, b *experiments.SweepResult, err error) {
	an, err := p.analysis(ctx, parent, spec)
	if err != nil {
		return nil, nil, err
	}
	sweep := func() (*experiments.SweepResult, error) {
		res := &experiments.SweepResult{Benchmark: spec.Name}
		res.Whole.Mix = p.wholeMix(ctx, parent, an)
		var err error
		res.Whole.Cache, err = p.wholeCache(ctx, parent, an)
		return res, err
	}
	if a, err = sweep(); err != nil {
		return nil, nil, err
	}
	for _, k := range []int{15, 20, 25, 30, 35} {
		res, err := p.recluster(ctx, parent, an, k)
		if err != nil {
			return nil, nil, err
		}
		pt, err := p.measure(ctx, parent, an, res, fmt.Sprintf("MaxK=%d", k))
		if err != nil {
			return nil, nil, err
		}
		a.Points = append(a.Points, pt)
	}
	if b, err = sweep(); err != nil {
		return nil, nil, err
	}
	for _, paper := range []uint64{15_000_000, 25_000_000, 30_000_000, 50_000_000, 100_000_000} {
		cfg := p.cfg
		cfg.SliceLen = cfg.Scale.SliceLenForPaperSize(paper)
		sub, err := p.analyzeUnstored(ctx, parent, spec, cfg)
		if err != nil {
			return nil, nil, err
		}
		pt, err := p.measure(ctx, parent, sub, sub.Result, fmt.Sprintf("slice=%dM", paper/1_000_000))
		if err != nil {
			return nil, nil, err
		}
		b.Points = append(b.Points, pt)
	}
	return a, b, nil
}

func (w *warmSweeps) verify(context.Context) tally { return tally{} }
func (w *warmSweeps) inputs() string               { return "subjects=" + strings.Join(w.subjects, ",") }

// ------------------------------------------------------------ replay_sim --

// replaySim runs Figure 8 then Figure 12 over the whole suite, each
// iteration from a copy of a store that holds only profiles and
// clusterings: whole-run cache and native timing runs plus cold, reduced
// and warm-up regional replays, and no clustering.
type replaySim struct {
	env
	order []string
	store string
	iter  int
}

func newReplaySim(e env) *replaySim {
	return &replaySim{env: e, order: e.shuffledSuite("replay_sim/order")}
}

// setup stores every benchmark's profile and clustering.
func (w *replaySim) setup(ctx context.Context, dir string) error {
	if err := freshDir(dir); err != nil {
		return err
	}
	w.store = dir
	return w.prewarmStore(ctx, dir, w.order, "tableII")
}

// replayStats are the simulated statistics Figures 8 and 12 report.
type replayStats struct {
	Fig8  []experiments.Fig8Row
	Fig12 []experiments.Fig12Row
}

func (w *replaySim) iterate(ctx context.Context, tr *tracer) (outcome, error) {
	w.iter++
	dir := filepath.Join(w.dir, fmt.Sprintf("iter-%d", w.iter))
	defer os.RemoveAll(dir)
	if err := copyDir(w.store, dir); err != nil {
		return outcome{}, err
	}
	before := dirBytes(dir)
	instrs := simInstrs.Value()
	start := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return outcome{}, err
	}
	r, err := w.runner(w.order, st)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	var stats replayStats
	if tr == nil {
		rep := experiments.NewReport()
		for _, id := range []string{"fig8", "fig12"} {
			if err := r.RunRecorded(ctx, id, rep); err != nil {
				return out, err
			}
		}
		out.Wall = time.Since(start)
		b, err := reportBytes(rep, r)
		if err != nil {
			return out, err
		}
		out.Report = digestBytes(b)
		var decoded struct {
			Results struct {
				Fig8  experiments.Fig8Result  `json:"fig8"`
				Fig12 experiments.Fig12Result `json:"fig12"`
			} `json:"results"`
		}
		if err := json.Unmarshal(b, &decoded); err != nil {
			return out, err
		}
		stats = replayStats{Fig8: decoded.Results.Fig8.Rows, Fig12: decoded.Results.Fig12.Rows}
	} else {
		root := tr.begin(0, "iteration")
		stats, err = w.traced(ctx, newProbe(tr, st, r.Config(), r.CacheConfig(), r.TimingConfig()), root.ID(), r.Benchmarks())
		root.end()
		out.Wall = time.Since(start)
		if err != nil {
			return out, err
		}
	}
	out.Instrs = simInstrs.Value() - instrs
	out.PutBytes = dirBytes(dir) - before
	out.Stats, err = digestJSON(stats)
	return out, err
}

// traced is Runner.Fig8 then Runner.Fig12, call by call.
func (w *replaySim) traced(ctx context.Context, p *probe, parent int, specs []workload.Spec) (replayStats, error) {
	const warmup = experiments.DefaultWarmupSlices
	stats := replayStats{Fig8: make([]experiments.Fig8Row, len(specs)), Fig12: make([]experiments.Fig12Row, len(specs))}
	err := sched.ForEach(ctx, w.workers, len(specs), func(i int) error {
		an, err := p.analysis(ctx, parent, specs[i])
		if err != nil {
			return err
		}
		row := experiments.Fig8Row{Benchmark: specs[i].Name}
		if row.Whole, err = p.wholeCache(ctx, parent, an); err != nil {
			return err
		}
		pbs, err := p.pinballs(parent, an, an.Result, 0)
		if err != nil {
			return err
		}
		if row.Regional, err = p.sampledCache(ctx, parent, an, pbs); err != nil {
			return err
		}
		reduced, err := an.Result.Reduce(0.9)
		if err != nil {
			return err
		}
		rpbs, err := p.pinballs(parent, an, reduced, 0)
		if err != nil {
			return err
		}
		if row.Reduced, err = p.sampledCache(ctx, parent, an, rpbs); err != nil {
			return err
		}
		wpbs, err := p.pinballs(parent, an, an.Result, warmup)
		if err != nil {
			return err
		}
		if row.Warmup, err = p.sampledCache(ctx, parent, an, wpbs); err != nil {
			return err
		}
		stats.Fig8[i] = row
		return nil
	})
	if err != nil {
		return stats, err
	}
	err = sched.ForEach(ctx, w.workers, len(specs), func(i int) error {
		an, err := p.analysis(ctx, parent, specs[i])
		if err != nil {
			return err
		}
		nat, err := p.perfStat(parent, an)
		if err != nil {
			return err
		}
		pbs, err := p.pinballs(parent, an, an.Result, warmup)
		if err != nil {
			return err
		}
		reg, err := p.sampledCPI(ctx, parent, an, pbs)
		if err != nil {
			return err
		}
		reduced, err := an.Result.Reduce(0.9)
		if err != nil {
			return err
		}
		rpbs, err := p.pinballs(parent, an, reduced, warmup)
		if err != nil {
			return err
		}
		red, err := p.sampledCPI(ctx, parent, an, rpbs)
		if err != nil {
			return err
		}
		stats.Fig12[i] = experiments.Fig12Row{Benchmark: specs[i].Name, NativeCPI: nat.CPI(), RegionalCPI: reg.CPI, ReducedCPI: red.CPI}
		return nil
	})
	return stats, err
}

func (w *replaySim) verify(context.Context) tally { return tally{} }
func (w *replaySim) inputs() string               { return "order=" + strings.Join(w.order, ",") }

package main

import (
	"context"
	"fmt"
	"sync"

	"specsampling/internal/cache"
	"specsampling/internal/core"
	"specsampling/internal/native"
	"specsampling/internal/pinball"
	"specsampling/internal/program"
	"specsampling/internal/selector"
	"specsampling/internal/simpoint"
	"specsampling/internal/store"
	"specsampling/internal/timing"
	"specsampling/internal/workload"
)

// probe drives the pipeline for a traced iteration: the same public calls
// experiments.Runner and core.AnalyzeStored make, in the same order, each
// wrapped in a span named after its layer. It also memoises analyses and
// whole-run profiles per benchmark, as a Runner does within one run.
type probe struct {
	tr   *tracer
	st   *store.Store
	cfg  core.Config // the Runner's analysis config (Runner.Config)
	hier cache.HierarchyConfig
	tcfg timing.Config

	mu       sync.Mutex
	analyses map[string]*core.Analysis
	mixes    map[string]core.MixProfile
	caches   map[string]core.CacheProfile
}

func newProbe(tr *tracer, st *store.Store, cfg core.Config, hier cache.HierarchyConfig, tcfg timing.Config) *probe {
	return &probe{
		tr: tr, st: st, cfg: cfg, hier: hier, tcfg: tcfg,
		analyses: map[string]*core.Analysis{},
		mixes:    map[string]core.MixProfile{},
		caches:   map[string]core.CacheProfile{},
	}
}

// profileArtifact mirrors the store payload core persists for the profile
// stage. Same type name and fields, so gob reads and writes the same bytes.
type profileArtifact struct {
	Slices      []simpoint.Slice
	TotalInstrs uint64
}

// selectorConfig lowers a core.Config to the selection config core hands
// every backend. It restates core's unexported lowering; should the two
// drift, traced outputs stop matching untraced ones and the run fails its
// output check.
func selectorConfig(c core.Config) selector.Config {
	c = c.Normalize()
	sliceLen := c.SliceLen
	if sliceLen == 0 {
		sliceLen = c.Scale.SliceLen
	}
	return selector.Config{
		SliceLen:   sliceLen,
		Seed:       c.Seed,
		Workers:    c.Workers,
		SimPoint:   c.SimPoint,
		Stratified: c.Stratified,
		RankedSet:  c.RankedSet,
	}.Normalize()
}

// wholeKey is the store key experiments.Runner files whole-run profiles
// under.
func wholeKey(kind, bench string, scale workload.Scale) store.Key {
	return store.Key{Kind: kind, Bench: bench, Parts: []string{
		"scale=" + scale.Name,
		fmt.Sprintf("div=%d", scale.Div),
	}}
}

func (p *probe) build(parent int, spec workload.Spec, scale workload.Scale) (*program.Program, error) {
	s := p.tr.begin(parent, "workload.build")
	defer s.end()
	return spec.Build(scale)
}

func (p *probe) get(ctx context.Context, parent int, key store.Key, v interface{}) bool {
	s := p.tr.begin(parent, "store.get")
	hit := p.st.Get(ctx, key, v)
	s.end()
	p.tr.count("store.gets", 1)
	if hit {
		p.tr.count("store.hits", 1)
	}
	return hit
}

func (p *probe) put(ctx context.Context, parent int, key store.Key, v interface{}) {
	s := p.tr.begin(parent, "store.put")
	_ = p.st.Put(ctx, key, v) // a failed cache write never fails the pipeline
	s.end()
	p.tr.count("store.puts", 1)
}

func (p *probe) profile(parent int, prog *program.Program, sliceLen uint64) ([]simpoint.Slice, uint64, error) {
	s := p.tr.begin(parent, "simpoint.profile")
	slices, total, err := simpoint.Profile(prog, sliceLen)
	s.end()
	p.tr.count("simpoint.slices", float64(len(slices)))
	return slices, total, err
}

func (p *probe) selectRegions(ctx context.Context, parent int, prog *program.Program, slices []simpoint.Slice, total uint64, cfg core.Config) (*simpoint.Result, error) {
	sel, err := selector.ByName(cfg.Normalize().Selector)
	if err != nil {
		return nil, err
	}
	s := p.tr.begin(parent, "selector.select")
	res, err := sel.Select(ctx, prog.Name, slices, total, selectorConfig(cfg))
	s.end()
	if err != nil {
		return nil, err
	}
	p.tr.count("selector.points", float64(res.NumPoints()))
	return res, nil
}

// analysis mirrors Runner.analysis over core.AnalyzeStored: build, then
// each of the profile and selection stages from the store or computed and
// persisted. Analyses are memoised per benchmark like the Runner's
// singleflight cache.
func (p *probe) analysis(ctx context.Context, parent int, spec workload.Spec) (*core.Analysis, error) {
	p.mu.Lock()
	an, ok := p.analyses[spec.Name]
	p.mu.Unlock()
	if ok {
		return an, nil
	}
	cfg := p.cfg.Normalize()
	prog, err := p.build(parent, spec, cfg.Scale)
	if err != nil {
		return nil, err
	}
	var prof profileArtifact
	if !p.get(ctx, parent, cfg.ProfileKey(spec.Name), &prof) {
		prof.Slices, prof.TotalInstrs, err = p.profile(parent, prog, selectorConfig(cfg).SliceLen)
		if err != nil {
			return nil, err
		}
		p.put(ctx, parent, cfg.ProfileKey(spec.Name), prof)
	}
	var res *simpoint.Result
	var stored simpoint.Result
	if p.get(ctx, parent, cfg.ClusterKey(spec.Name), &stored) {
		sel, err := selector.ByName(cfg.Selector)
		if err != nil {
			return nil, err
		}
		stored.Config = sel.EchoConfig(selectorConfig(cfg))
		res = &stored
	} else {
		if res, err = p.selectRegions(ctx, parent, prog, prof.Slices, prof.TotalInstrs, cfg); err != nil {
			return nil, err
		}
		p.put(ctx, parent, cfg.ClusterKey(spec.Name), res)
	}
	an = &core.Analysis{Spec: spec, Prog: prog, Config: cfg, Slices: prof.Slices, TotalInstrs: prof.TotalInstrs, Result: res}
	p.mu.Lock()
	p.analyses[spec.Name] = an
	p.mu.Unlock()
	return an, nil
}

// analyzeUnstored mirrors core.Analyze (no store): build, profile, select.
// The slice-size sweep calls it once per slice length.
func (p *probe) analyzeUnstored(ctx context.Context, parent int, spec workload.Spec, cfg core.Config) (*core.Analysis, error) {
	cfg = cfg.Normalize()
	prog, err := p.build(parent, spec, cfg.Scale)
	if err != nil {
		return nil, err
	}
	slices, total, err := p.profile(parent, prog, selectorConfig(cfg).SliceLen)
	if err != nil {
		return nil, err
	}
	res, err := p.selectRegions(ctx, parent, prog, slices, total, cfg)
	if err != nil {
		return nil, err
	}
	return &core.Analysis{Spec: spec, Prog: prog, Config: cfg, Slices: slices, TotalInstrs: total, Result: res}, nil
}

// wholeMix mirrors Runner.wholeMix: memo, then store, then compute.
func (p *probe) wholeMix(ctx context.Context, parent int, an *core.Analysis) core.MixProfile {
	name := an.Spec.Name
	p.mu.Lock()
	mp, ok := p.mixes[name]
	p.mu.Unlock()
	if ok {
		return mp
	}
	key := wholeKey("whole_mix", name, p.cfg.Scale)
	if !p.get(ctx, parent, key, &mp) {
		s := p.tr.begin(parent, "core.whole_mix")
		mp = an.WholeMix(ctx)
		s.end()
		p.put(ctx, parent, key, mp)
	}
	p.mu.Lock()
	p.mixes[name] = mp
	p.mu.Unlock()
	return mp
}

// wholeCache mirrors Runner.wholeCache: memo, then store, then compute.
func (p *probe) wholeCache(ctx context.Context, parent int, an *core.Analysis) (core.CacheProfile, error) {
	name := an.Spec.Name
	p.mu.Lock()
	cp, ok := p.caches[name]
	p.mu.Unlock()
	if ok {
		return cp, nil
	}
	key := wholeKey("whole_cache", name, p.cfg.Scale)
	if !p.get(ctx, parent, key, &cp) {
		s := p.tr.begin(parent, "core.whole_cache")
		var err error
		cp, err = an.WholeCache(ctx, p.hier)
		s.end()
		if err != nil {
			return cp, err
		}
		p.put(ctx, parent, key, cp)
	}
	p.mu.Lock()
	p.caches[name] = cp
	p.mu.Unlock()
	return cp, nil
}

func (p *probe) recluster(ctx context.Context, parent int, an *core.Analysis, maxK int) (*simpoint.Result, error) {
	s := p.tr.begin(parent, "core.recluster")
	defer s.end()
	return an.Recluster(ctx, maxK)
}

func (p *probe) pinballs(parent int, an *core.Analysis, res *simpoint.Result, warmup int) ([]*pinball.Pinball, error) {
	s := p.tr.begin(parent, "pinball.cut")
	pbs, err := an.Pinballs(res, warmup)
	s.end()
	p.tr.count("pinball.regions", float64(len(pbs)))
	return pbs, err
}

func (p *probe) sampledMix(ctx context.Context, parent int, an *core.Analysis, pbs []*pinball.Pinball) (core.MixProfile, error) {
	s := p.tr.begin(parent, "core.sampled_mix")
	defer s.end()
	return an.SampledMix(ctx, pbs)
}

func (p *probe) sampledCache(ctx context.Context, parent int, an *core.Analysis, pbs []*pinball.Pinball) (core.CacheProfile, error) {
	s := p.tr.begin(parent, "core.sampled_cache")
	defer s.end()
	return an.SampledCache(ctx, pbs, p.hier)
}

func (p *probe) sampledCPI(ctx context.Context, parent int, an *core.Analysis, pbs []*pinball.Pinball) (core.CPIProfile, error) {
	s := p.tr.begin(parent, "core.sampled_cpi")
	defer s.end()
	return an.SampledCPI(ctx, pbs, p.tcfg)
}

func (p *probe) perfStat(parent int, an *core.Analysis) (timing.Counters, error) {
	s := p.tr.begin(parent, "native.perfstat")
	defer s.end()
	return native.PerfStat(an.Prog, an.Config.Scale.CacheDivs, 0)
}

// measure mirrors core's sweep measurement: cut pinballs for a result, then
// sampled mix and cache profiles.
func (p *probe) measure(ctx context.Context, parent int, an *core.Analysis, res *simpoint.Result, label string) (core.SweepPoint, error) {
	pbs, err := p.pinballs(parent, an, res, 0)
	if err != nil {
		return core.SweepPoint{}, err
	}
	mix, err := p.sampledMix(ctx, parent, an, pbs)
	if err != nil {
		return core.SweepPoint{}, err
	}
	cp, err := p.sampledCache(ctx, parent, an, pbs)
	if err != nil {
		return core.SweepPoint{}, err
	}
	return core.SweepPoint{Label: label, NumPoints: res.NumPoints(), Mix: mix, Cache: cp}, nil
}

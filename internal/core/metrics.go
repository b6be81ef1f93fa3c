package core

import (
	"context"
	"fmt"

	"specsampling/internal/cache"
	"specsampling/internal/obs"
	"specsampling/internal/pin"
	"specsampling/internal/pinball"
	"specsampling/internal/pintool"
	"specsampling/internal/stats"
	"specsampling/internal/timing"
)

// cacheAccessCounter totals cache-hierarchy accesses observed by the
// measurement paths, batched per hierarchy where stats are already read.
var cacheAccessCounter = obs.GetCounter("cache.accesses")

// countHierarchy adds one hierarchy's access totals to the global counter.
func countHierarchy(h *cache.Hierarchy) {
	s := h.L1D.Stats().Accesses + h.L1I.Stats().Accesses +
		h.L2.Stats().Accesses + h.L3.Stats().Accesses
	cacheAccessCounter.Add(int64(s))
}

// MixProfile is an instruction-distribution measurement in ldstmix order
// (NO_MEM, MEM_R, MEM_W, MEM_RW).
type MixProfile struct {
	// Fractions are the per-category shares (sum to 1).
	Fractions [4]float64
	// Instrs is the measured instruction count (the raw, unweighted total
	// for sampled runs — the quantity of Figure 5(a)).
	Instrs uint64
}

// CacheProfile is a cache-hierarchy measurement at the Table I
// configuration (or any hierarchy the caller passes).
type CacheProfile struct {
	// L1D, L2, L3 and L1I are the per-level miss rates. Sampled runs report
	// the weighted average of per-region rates, following the paper's
	// methodology (Section IV-D: weighted averages of
	// instruction-normalised statistics).
	L1D, L2, L3, L1I float64
	// L3Accesses is the raw number of L3 accesses (unweighted total) — the
	// quantity of Figure 10, which shrinks with sampling.
	L3Accesses uint64
	// Instrs is the measured instruction count.
	Instrs uint64
}

// CPIProfile is a timing measurement.
type CPIProfile struct {
	// CPI is cycles per instruction (weight-averaged for sampled runs; the
	// paper notes CPI may be weight-averaged, IPC may not).
	CPI float64
	// Cycles and Instrs are raw totals.
	Cycles float64
	Instrs uint64
}

// WholeMix replays the whole program with ldstmix attached.
func (a *Analysis) WholeMix(ctx context.Context) MixProfile {
	_, span := obs.Start(ctx, "whole_mix", obs.String("bench", a.Prog.Name))
	defer span.End()
	mix := pintool.NewLdStMix()
	engine := pin.NewEngine(a.Prog)
	// Attach cannot fail for a tool with event interfaces.
	if err := engine.Attach(mix); err != nil {
		panic(err)
	}
	n := engine.RunToEnd()
	return MixProfile{Fractions: mix.Fractions(), Instrs: n}
}

// WholeCache replays the whole program through a cache hierarchy.
func (a *Analysis) WholeCache(ctx context.Context, cfg cache.HierarchyConfig) (CacheProfile, error) {
	_, span := obs.Start(ctx, "whole_cache", obs.String("bench", a.Prog.Name))
	defer span.End()
	h, err := cache.NewHierarchy(cfg)
	if err != nil {
		return CacheProfile{}, err
	}
	engine := pin.NewEngine(a.Prog)
	if err := engine.Attach(pintool.NewAllCache(h)); err != nil {
		return CacheProfile{}, err
	}
	n := engine.RunToEnd()
	countHierarchy(h)
	l1d, l2, l3 := h.MissRates()
	return CacheProfile{
		L1D: l1d, L2: l2, L3: l3, L1I: h.L1I.Stats().MissRate(),
		L3Accesses: h.L3.Stats().Accesses,
		Instrs:     n,
	}, nil
}

// WholeCPI runs the whole program on the given timing machine.
func (a *Analysis) WholeCPI(ctx context.Context, cfg timing.Config) (CPIProfile, error) {
	_, span := obs.Start(ctx, "whole_cpi", obs.String("bench", a.Prog.Name))
	defer span.End()
	core, err := timing.NewCore(cfg)
	if err != nil {
		return CPIProfile{}, err
	}
	engine := pin.NewEngine(a.Prog)
	if err := engine.Attach(core); err != nil {
		return CPIProfile{}, err
	}
	engine.RunToEnd()
	c := core.Counters()
	return CPIProfile{CPI: c.CPI(), Cycles: c.Cycles, Instrs: c.Instructions}, nil
}

// SampledMix replays regional pinballs (in parallel) with ldstmix attached
// and weight-averages the category fractions.
func (a *Analysis) SampledMix(ctx context.Context, pbs []*pinball.Pinball) (MixProfile, error) {
	if len(pbs) == 0 {
		return MixProfile{}, fmt.Errorf("core: no pinballs")
	}
	mixes := make([]*pintool.LdStMix, len(pbs))
	results := pinball.ReplayAll(ctx, a.Prog, pbs, a.Config.Workers, func(i int) []pin.Tool {
		mixes[i] = pintool.NewLdStMix()
		return []pin.Tool{mixes[i]}
	})
	weights := make([]float64, len(pbs))
	perCat := make([][]float64, 4)
	for c := range perCat {
		perCat[c] = make([]float64, len(pbs))
	}
	var totalInstrs uint64
	for i, r := range results {
		if r.Err != nil {
			return MixProfile{}, fmt.Errorf("core: replay %d: %w", i, r.Err)
		}
		weights[i] = pbs[i].Weight
		fr := mixes[i].Fractions()
		for c := 0; c < 4; c++ {
			perCat[c][i] = fr[c]
		}
		totalInstrs += r.Executed
	}
	var out MixProfile
	for c := 0; c < 4; c++ {
		out.Fractions[c] = stats.WeightedMean(perCat[c], weights)
	}
	out.Instrs = totalInstrs
	return out, nil
}

// SampledCache replays regional pinballs through private cache hierarchies
// and weight-averages the per-region miss rates. Pinballs carrying warm-up
// checkpoints get their hierarchies warmed first (the "Warmup Regional Run"
// of Figure 8).
func (a *Analysis) SampledCache(ctx context.Context, pbs []*pinball.Pinball, cfg cache.HierarchyConfig) (CacheProfile, error) {
	if len(pbs) == 0 {
		return CacheProfile{}, fmt.Errorf("core: no pinballs")
	}
	caches := make([]*cache.Hierarchy, len(pbs))
	results := pinball.ReplayAll(ctx, a.Prog, pbs, a.Config.Workers, func(i int) []pin.Tool {
		h, err := cache.NewHierarchy(cfg)
		if err != nil {
			panic(err) // config was validated by the first construction
		}
		caches[i] = h
		return []pin.Tool{pintool.NewAllCache(h)}
	})
	weights := make([]float64, len(pbs))
	l1d := make([]float64, len(pbs))
	l2 := make([]float64, len(pbs))
	l3 := make([]float64, len(pbs))
	l1i := make([]float64, len(pbs))
	var l3Acc, instrs uint64
	for i, r := range results {
		if r.Err != nil {
			return CacheProfile{}, fmt.Errorf("core: replay %d: %w", i, r.Err)
		}
		weights[i] = pbs[i].Weight
		h := caches[i]
		countHierarchy(h)
		l1d[i], l2[i], l3[i] = h.MissRates()
		l1i[i] = h.L1I.Stats().MissRate()
		l3Acc += h.L3.Stats().Accesses
		instrs += r.Executed
	}
	return CacheProfile{
		L1D: stats.WeightedMean(l1d, weights),
		L2:  stats.WeightedMean(l2, weights),
		L3:  stats.WeightedMean(l3, weights),
		L1I: stats.WeightedMean(l1i, weights),

		L3Accesses: l3Acc,
		Instrs:     instrs,
	}, nil
}

// SampledCacheRepeated implements the paper's other cold-cache mitigation
// (Section IV-D): each regional pinball is replayed `rounds` times against
// the same hierarchy, exercising the LLC, and only the final replay is
// measured. rounds = 1 equals SampledCache.
func (a *Analysis) SampledCacheRepeated(ctx context.Context, pbs []*pinball.Pinball, cfg cache.HierarchyConfig, rounds int) (CacheProfile, error) {
	if len(pbs) == 0 {
		return CacheProfile{}, fmt.Errorf("core: no pinballs")
	}
	if rounds < 1 {
		return CacheProfile{}, fmt.Errorf("core: rounds = %d", rounds)
	}
	caches := make([]*cache.Hierarchy, len(pbs))
	warmRounds := rounds - 1
	results := pinball.ReplayAll(ctx, a.Prog, pbs, a.Config.Workers, func(i int) []pin.Tool {
		h, err := cache.NewHierarchy(cfg)
		if err != nil {
			panic(err)
		}
		caches[i] = h
		tool := pintool.NewAllCache(h)
		// Pre-warm: replay the region warmRounds times with statistics
		// suppressed before the measured replay that ReplayAll performs.
		for r := 0; r < warmRounds; r++ {
			h.SetWarmup(true)
			if _, err := pinball.Replay(a.Prog, stripWarmup(pbs[i]), tool); err != nil {
				panic(err)
			}
			h.SetWarmup(false)
		}
		return []pin.Tool{tool}
	})
	weights := make([]float64, len(pbs))
	l1d := make([]float64, len(pbs))
	l2 := make([]float64, len(pbs))
	l3 := make([]float64, len(pbs))
	l1i := make([]float64, len(pbs))
	var l3Acc, instrs uint64
	for i, r := range results {
		if r.Err != nil {
			return CacheProfile{}, fmt.Errorf("core: replay %d: %w", i, r.Err)
		}
		weights[i] = pbs[i].Weight
		h := caches[i]
		countHierarchy(h)
		l1d[i], l2[i], l3[i] = h.MissRates()
		l1i[i] = h.L1I.Stats().MissRate()
		l3Acc += h.L3.Stats().Accesses
		instrs += r.Executed
	}
	return CacheProfile{
		L1D: stats.WeightedMean(l1d, weights),
		L2:  stats.WeightedMean(l2, weights),
		L3:  stats.WeightedMean(l3, weights),
		L1I: stats.WeightedMean(l1i, weights),

		L3Accesses: l3Acc,
		Instrs:     instrs,
	}, nil
}

// stripWarmup returns a copy of the pinball without its warm-up checkpoint,
// so pre-warm replays cover exactly the region.
func stripWarmup(pb *pinball.Pinball) *pinball.Pinball {
	out := *pb
	out.HasWarmup = false
	out.WarmupLen = 0
	return &out
}

// SampledCPI replays regional pinballs on private timing cores and
// weight-averages their CPIs.
func (a *Analysis) SampledCPI(ctx context.Context, pbs []*pinball.Pinball, cfg timing.Config) (CPIProfile, error) {
	if len(pbs) == 0 {
		return CPIProfile{}, fmt.Errorf("core: no pinballs")
	}
	cores := make([]*timing.Core, len(pbs))
	results := pinball.ReplayAll(ctx, a.Prog, pbs, a.Config.Workers, func(i int) []pin.Tool {
		core, err := timing.NewCore(cfg)
		if err != nil {
			panic(err)
		}
		cores[i] = core
		return []pin.Tool{core}
	})
	weights := make([]float64, len(pbs))
	cpis := make([]float64, len(pbs))
	var cycles float64
	var instrs uint64
	for i, r := range results {
		if r.Err != nil {
			return CPIProfile{}, fmt.Errorf("core: replay %d: %w", i, r.Err)
		}
		weights[i] = pbs[i].Weight
		c := cores[i].Counters()
		cpis[i] = c.CPI()
		cycles += c.Cycles
		instrs += c.Instructions
	}
	return CPIProfile{
		CPI:    stats.WeightedMean(cpis, weights),
		Cycles: cycles,
		Instrs: instrs,
	}, nil
}

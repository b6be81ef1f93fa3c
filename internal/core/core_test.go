package core

import (
	"context"
	"math"
	"testing"

	"specsampling/internal/cache"
	"specsampling/internal/native"
	"specsampling/internal/workload"
)

// tctx is the background context every test threads through the API.
var tctx = context.Background()

// analyzeBench runs the pipeline for a named benchmark at small scale.
func analyzeBench(t testing.TB, name string) *Analysis {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(workload.ScaleSmall)
	an, err := Analyze(tctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestAnalyzeBasics(t *testing.T) {
	an := analyzeBench(t, "520.omnetpp_r")
	if an.Result.NumPoints() == 0 {
		t.Fatal("no simulation points")
	}
	if math.Abs(an.Result.WeightTotal()-1) > 1e-9 {
		t.Errorf("weights sum to %v", an.Result.WeightTotal())
	}
	if an.TotalInstrs == 0 || len(an.Slices) == 0 {
		t.Error("missing profile data")
	}
	var sliceSum uint64
	for _, s := range an.Slices {
		sliceSum += s.Len
	}
	if sliceSum != an.TotalInstrs {
		t.Errorf("slices sum to %d, total %d", sliceSum, an.TotalInstrs)
	}
}

func TestPinballsMatchPoints(t *testing.T) {
	an := analyzeBench(t, "557.xz_r")
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pbs) != an.Result.NumPoints() {
		t.Fatalf("%d pinballs for %d points", len(pbs), an.Result.NumPoints())
	}
	for i, pb := range pbs {
		pt := an.Result.Points[i]
		if pb.Len != pt.Len || pb.Weight != pt.Weight {
			t.Errorf("pinball %d diverges from its point", i)
		}
		if pb.HasWarmup {
			t.Errorf("pinball %d has unexpected warm-up", i)
		}
	}
}

func TestPinballsWithWarmup(t *testing.T) {
	an := analyzeBench(t, "557.xz_r")
	pbs, err := an.Pinballs(an.Result, 4)
	if err != nil {
		t.Fatal(err)
	}
	warmed := 0
	for _, pb := range pbs {
		if !pb.HasWarmup {
			// Only points within the first warmupSlices slices may lack
			// warm-up.
			if pb.Start.Instrs > 4*an.Config.Scale.SliceLen+64 {
				t.Errorf("region at %d lacks warm-up", pb.Start.Instrs)
			}
			continue
		}
		warmed++
		if pb.Warmup.Instrs+pb.WarmupLen != pb.Start.Instrs {
			t.Error("warm-up does not abut the region")
		}
	}
	if warmed == 0 {
		t.Error("no pinball carries warm-up")
	}
}

// The pipeline's central accuracy claim: the weighted sampled instruction
// mix matches the whole-run mix to within ~1-2%.
func TestSampledMixTracksWholeMix(t *testing.T) {
	an := analyzeBench(t, "541.leela_r")
	whole := an.WholeMix(tctx)
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := an.SampledMix(tctx, pbs)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if d := math.Abs(sampled.Fractions[c] - whole.Fractions[c]); d > 0.03 {
			t.Errorf("category %d: sampled %v vs whole %v (abs diff %v)",
				c, sampled.Fractions[c], whole.Fractions[c], d)
		}
	}
	if sampled.Instrs >= whole.Instrs {
		t.Error("sampling did not reduce instructions")
	}
}

func TestSampledCacheGradient(t *testing.T) {
	an := analyzeBench(t, "505.mcf_r")
	hier := an.CacheConfig()
	whole, err := an.WholeCache(tctx, hier)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := an.SampledCache(tctx, pbs, hier)
	if err != nil {
		t.Fatal(err)
	}
	// Regional L3 accesses must be far fewer than whole (Figure 10).
	if sampled.L3Accesses >= whole.L3Accesses {
		t.Errorf("regional L3 accesses %d >= whole %d", sampled.L3Accesses, whole.L3Accesses)
	}
	// Cold-start inflation: sampled L3 miss rate should be >= whole's.
	if sampled.L3 < whole.L3-0.02 {
		t.Errorf("sampled L3 miss rate %v unexpectedly below whole %v", sampled.L3, whole.L3)
	}
	for _, v := range []float64{sampled.L1D, sampled.L2, sampled.L3, whole.L1D, whole.L2, whole.L3} {
		if v < 0 || v > 1 {
			t.Errorf("miss rate %v out of range", v)
		}
	}
}

func TestWarmupReducesL3Error(t *testing.T) {
	an := analyzeBench(t, "505.mcf_r")
	hier := an.CacheConfig()
	whole, err := an.WholeCache(tctx, hier)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldProf, err := an.SampledCache(tctx, cold, hier)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := an.Pinballs(an.Result, 8)
	if err != nil {
		t.Fatal(err)
	}
	warmProf, err := an.SampledCache(tctx, warm, hier)
	if err != nil {
		t.Fatal(err)
	}
	coldErr := math.Abs(coldProf.L3 - whole.L3)
	warmErr := math.Abs(warmProf.L3 - whole.L3)
	if warmErr > coldErr+0.01 {
		t.Errorf("warm-up increased L3 error: cold %v, warm %v", coldErr, warmErr)
	}
}

func TestSampledCPITracksWholeCPI(t *testing.T) {
	an := analyzeBench(t, "541.leela_r")
	cfg := an.TimingConfig()
	whole, err := an.WholeCPI(tctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 4)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := an.SampledCPI(tctx, pbs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if whole.CPI <= 0 || sampled.CPI <= 0 {
		t.Fatalf("degenerate CPIs: whole %v sampled %v", whole.CPI, sampled.CPI)
	}
	if rel := math.Abs(sampled.CPI-whole.CPI) / whole.CPI; rel > 0.25 {
		t.Errorf("sampled CPI %v vs whole %v (rel err %v)", sampled.CPI, whole.CPI, rel)
	}
}

func TestNativeVsSniperSampled(t *testing.T) {
	an := analyzeBench(t, "541.leela_r")
	nat, err := native.PerfStat(an.Prog, an.Config.Scale.CacheDivs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 4)
	if err != nil {
		t.Fatal(err)
	}
	sniper, err := an.SampledCPI(tctx, pbs, an.TimingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(sniper.CPI-nat.CPI()) / nat.CPI(); rel > 0.30 {
		t.Errorf("sniper-sampled CPI %v vs native %v (rel err %v)", sniper.CPI, nat.CPI(), rel)
	}
}

func TestCompareRuns(t *testing.T) {
	an := analyzeBench(t, "520.omnetpp_r")
	rc, err := an.CompareRuns(tctx, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rc.WholeInstrs == 0 || rc.RegionalInstrs == 0 || rc.ReducedInstrs == 0 {
		t.Fatalf("zero instruction counts: %+v", rc)
	}
	if rc.RegionalInstrs >= rc.WholeInstrs {
		t.Error("regional run not smaller than whole")
	}
	if rc.ReducedInstrs > rc.RegionalInstrs {
		t.Error("reduced run larger than regional")
	}
	if rc.NumPoints90 > rc.NumPoints {
		t.Error("reduction added points")
	}
	regional, reduced := rc.InstrReduction()
	if regional <= 1 || reduced < regional {
		t.Errorf("instruction reductions: regional %v, reduced %v", regional, reduced)
	}
	tr, trr := rc.TimeReduction()
	if tr <= 0 || trr <= 0 {
		t.Errorf("time reductions: %v %v", tr, trr)
	}
}

func TestSweepMaxK(t *testing.T) {
	an := analyzeBench(t, "520.omnetpp_r")
	pts, err := an.SweepMaxK(tctx, []int{3, 10}, an.CacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d sweep points", len(pts))
	}
	if pts[0].NumPoints > 3 {
		t.Errorf("MaxK=3 produced %d points", pts[0].NumPoints)
	}
	if pts[0].Label != "MaxK=3" || pts[1].Label != "MaxK=10" {
		t.Errorf("labels: %q %q", pts[0].Label, pts[1].Label)
	}
}

func TestSweepSliceSize(t *testing.T) {
	spec, err := workload.ByName("520.omnetpp_r")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(workload.ScaleSmall)
	hier := cache.ScaledHierarchy(cache.TableIConfig(), workload.ScaleSmall.CacheDivs)
	pts, err := SweepSliceSize(tctx, spec, cfg, []uint64{15_000_000, 30_000_000}, hier)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d sweep points", len(pts))
	}
	if pts[0].Label != "slice=15M" {
		t.Errorf("label %q", pts[0].Label)
	}
}

func TestPercentileSweep(t *testing.T) {
	an := analyzeBench(t, "557.xz_r")
	pts, err := an.PercentileSweep(tctx, []float64{1.0, 0.9, 0.5}, an.CacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Fewer points and fewer instructions as the percentile drops.
	for i := 1; i < len(pts); i++ {
		if pts[i].NumPoints > pts[i-1].NumPoints {
			t.Errorf("points grew as percentile dropped: %d -> %d",
				pts[i-1].NumPoints, pts[i].NumPoints)
		}
		if pts[i].Mix.Instrs > pts[i-1].Mix.Instrs {
			t.Error("instructions grew as percentile dropped")
		}
	}
}

func TestErrorPaths(t *testing.T) {
	an := analyzeBench(t, "520.omnetpp_r")
	if _, err := an.Pinballs(nil, 0); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := an.SampledMix(tctx, nil); err == nil {
		t.Error("empty pinball set accepted for mix")
	}
	if _, err := an.SampledCache(tctx, nil, an.CacheConfig()); err == nil {
		t.Error("empty pinball set accepted for cache")
	}
	if _, err := an.SampledCPI(tctx, nil, an.TimingConfig()); err == nil {
		t.Error("empty pinball set accepted for CPI")
	}
	if _, err := an.WholeCache(tctx, cache.HierarchyConfig{}); err == nil {
		t.Error("invalid hierarchy accepted")
	}
}

func TestRepeatedReplayReducesL3Error(t *testing.T) {
	an := analyzeBench(t, "505.mcf_r")
	hier := an.CacheConfig()
	whole, err := an.WholeCache(tctx, hier)
	if err != nil {
		t.Fatal(err)
	}
	pbs, err := an.Pinballs(an.Result, 0)
	if err != nil {
		t.Fatal(err)
	}
	once, err := an.SampledCacheRepeated(tctx, pbs, hier, 1)
	if err != nil {
		t.Fatal(err)
	}
	// rounds=1 must agree with the plain path.
	plain, err := an.SampledCache(tctx, pbs, hier)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(once.L3-plain.L3) > 1e-9 {
		t.Errorf("rounds=1 L3 %v != plain %v", once.L3, plain.L3)
	}
	thrice, err := an.SampledCacheRepeated(tctx, pbs, hier, 3)
	if err != nil {
		t.Fatal(err)
	}
	errOnce := math.Abs(once.L3 - whole.L3)
	errThrice := math.Abs(thrice.L3 - whole.L3)
	if errThrice > errOnce+0.01 {
		t.Errorf("repeated replay increased L3 error: %v -> %v", errOnce, errThrice)
	}
	if _, err := an.SampledCacheRepeated(tctx, pbs, hier, 0); err == nil {
		t.Error("rounds=0 accepted")
	}
	if _, err := an.SampledCacheRepeated(tctx, nil, hier, 2); err == nil {
		t.Error("empty pinballs accepted")
	}
}

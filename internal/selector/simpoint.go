package selector

import (
	"context"
	"fmt"

	"specsampling/internal/kmeans"
	"specsampling/internal/simpoint"
)

func init() { Register(simPointSelector{}) }

// simPointSelector is the paper's pipeline behind the Selector interface:
// BBV normalisation, random projection, k-means with BIC model selection,
// nearest-to-centroid representatives. It is a thin adapter over
// simpoint.Cluster and is bit-identical to the pre-interface code path
// (pinned by TestSimPointSelectorMatchesCluster and the experiments
// determinism snapshots).
type simPointSelector struct{}

// SimPointName is the SimPoint backend's registry name.
const SimPointName = "simpoint"

func (simPointSelector) Name() string { return SimPointName }

// SimPointParams resolves cfg into the simpoint.Config the backend runs
// with: the paper defaults at cfg.SliceLen, the SimPoint block's knobs, and
// an explicit k-means engine config carrying the worker budget. Exported
// because core.VarianceSweep needs the same resolution for its fixed-k
// sweeps.
func SimPointParams(cfg Config) simpoint.Config {
	cfg = cfg.Normalize()
	sp := simpoint.DefaultConfig(cfg.SliceLen)
	sp.MaxK = cfg.SimPoint.MaxK
	sp.BICThreshold = cfg.SimPoint.BICThreshold
	sp.Seed = cfg.Seed
	// Hand the worker budget to the clustering engine. The explicit config
	// matches what simpoint would default to, plus Workers; k-means results
	// are identical for every worker count.
	sp.KMeans = kmeans.DefaultConfig(sp.Seed)
	sp.KMeans.Workers = cfg.Workers
	return sp
}

func (simPointSelector) Select(ctx context.Context, benchmark string, slices []simpoint.Slice, totalInstrs uint64, cfg Config) (*simpoint.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validate(slices, cfg.Normalize()); err != nil {
		return nil, err
	}
	return simpoint.Cluster(benchmark, slices, totalInstrs, SimPointParams(cfg))
}

// KeyParts restates the pre-interface ClusterKey tail exactly, so existing
// stores keep their simpoint artifacts addressable.
func (simPointSelector) KeyParts(cfg Config) []string {
	sp := SimPointParams(cfg)
	return []string{
		fmt.Sprintf("maxk=%d", sp.MaxK),
		fmt.Sprintf("bic=%g", sp.BICThreshold),
		fmt.Sprintf("dims=%d", sp.ProjectDims),
		fmt.Sprintf("seed=%d", sp.Seed),
		fmt.Sprintf("restarts=%d", sp.KMeans.Restarts),
		fmt.Sprintf("maxiter=%d", sp.KMeans.MaxIter),
		fmt.Sprintf("sample=%d", sp.KMeans.SampleSize),
	}
}

func (simPointSelector) EchoConfig(cfg Config) simpoint.Config {
	return SimPointParams(cfg)
}

func (simPointSelector) Knobs() []Knob {
	return []Knob{
		{Name: "SimPoint.MaxK", Default: fmt.Sprint(simpoint.DefaultMaxK),
			Doc: "cluster ceiling for BIC model selection"},
		{Name: "SimPoint.BICThreshold", Default: fmt.Sprint(simpoint.DefaultBICThreshold),
			Doc: "fraction of the BIC range a candidate k must reach"},
	}
}

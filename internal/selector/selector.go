// Package selector is the region-selection layer of the pipeline: the
// pluggable step that turns a benchmark's profiled slices into simulation
// points (representative regions with weights). The paper's PinPoints flow
// hard-wires SimPoint here; this package generalises it into a Selector
// interface with a registry, so the same profiling, replay, caching and
// reporting machinery can score alternative sampling methodologies against
// each other (the cross-selector shoot-out in internal/experiments).
//
// Three backends are registered:
//
//   - simpoint   — BBV → random projection → k-means with BIC model
//     selection → nearest-to-centroid representatives (the paper's method;
//     bit-identical to the pre-refactor pipeline).
//   - stratified — two-phase stratified sampling (after "CPU Simulation
//     Using Two-Phase Stratified Sampling"): a cheap phase-1 metric per
//     slice, equal-population strata over the metric, a Neyman-allocated
//     sample budget, and stratum-share weights.
//   - rankedset  — ranked-set sampling with repeated subsampling (after
//     "CPU Simulation with Ranked Set Sampling and Repeated Subsampling"):
//     random sets ranked by the phase metric, one order statistic taken per
//     set, repeated over cycles; repeats under different seeds yield
//     confidence intervals in the shoot-out harness.
//
// Determinism is part of the contract: a backend's Result must be a pure
// function of (benchmark, slices, totalInstrs, Config) minus the Workers
// budget — byte-identical for any worker count. Randomness comes only from
// internal/rng generators seeded from Config.Seed.
//
// Cache-key rule: every Config field a backend reads in Select must be
// folded into its KeyParts, so the persistent store can never alias two
// configurations. The cachekey analyzer (internal/analysis) enforces this
// across the interface dispatch: it resolves Selector method calls to every
// registered implementation.
package selector

import (
	"context"
	"fmt"
	"io"
	"sort"

	"specsampling/internal/simpoint"
)

// DefaultName is the backend used when a configuration names none: the
// paper's SimPoint pipeline.
const DefaultName = SimPointName

// Config is the backend-independent selection configuration handed to every
// Selector. The common fields (slice length, seed, worker budget) apply to
// all backends; each backend additionally reads exactly one of the
// per-backend blocks. The zero value is safe: Normalize resolves defaults.
type Config struct {
	// SliceLen is the resolved slice length in scaled instructions (the
	// profile the slices came from).
	SliceLen uint64
	// Seed drives every random decision a backend makes (projection,
	// clustering, stratum draws, set draws).
	Seed uint64
	// Workers bounds backend-internal parallelism; results are identical
	// for every value, so it is excluded from cache keys.
	//lint:ignore cachekey worker budgets cannot change selection results, only wall-clock
	Workers int

	// SimPoint configures the "simpoint" backend.
	SimPoint SimPointConfig
	// Stratified configures the "stratified" backend.
	Stratified StratifiedConfig
	// RankedSet configures the "rankedset" backend.
	RankedSet RankedSetConfig
}

// Normalize resolves zero values to the pipeline defaults. Idempotent;
// every backend calls it on entry, so sparse configs are safe.
func (c Config) Normalize() Config {
	if c.Seed == 0 {
		c.Seed = simpoint.DefaultSeed
	}
	c.SimPoint = c.SimPoint.Normalize()
	c.Stratified = c.Stratified.Normalize()
	c.RankedSet = c.RankedSet.Normalize()
	return c
}

// Knob documents one configuration field of a backend for `-selector list`.
type Knob struct {
	// Name is the config field, qualified by its block ("Stratified.Strata").
	Name string
	// Default renders the normalised default value.
	Default string
	// Doc is a one-line description.
	Doc string
}

// Selector is one region-selection backend. Implementations must be
// stateless values: the registry hands the same instance to every caller
// concurrently.
type Selector interface {
	// Name is the registry identifier (also the `-selector` flag value).
	Name() string
	// Select chooses simulation points from the profiled slices. The
	// result must be deterministic in (benchmark, slices, totalInstrs,
	// cfg) for any Workers value, with weights summing to 1 and every
	// point replicating one profiled slice's coordinates.
	Select(ctx context.Context, benchmark string, slices []simpoint.Slice, totalInstrs uint64, cfg Config) (*simpoint.Result, error)
	// KeyParts returns the backend's cache-key contribution: canonical
	// "name=value" parts covering every Config field Select reads (minus
	// Workers). core.Config.ClusterKey folds them into the store key.
	KeyParts(cfg Config) []string
	// EchoConfig returns the simpoint.Config echo the backend stamps into
	// Result.Config; core restates it on cache hits so stored artifacts
	// match fresh computation in the non-semantic fields too.
	EchoConfig(cfg Config) simpoint.Config
	// Knobs documents the backend's configuration fields.
	Knobs() []Knob
}

// registry maps backend names to implementations. It is written only from
// package init (Register) and read-only afterwards, so no locking.
var registry = map[string]Selector{}

// Register adds a backend to the registry. It panics on a duplicate name —
// registration happens at init time, where a collision is a programming
// error worth failing loudly on.
func Register(s Selector) {
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("selector: duplicate backend %q", s.Name()))
	}
	registry[s.Name()] = s
}

// ByName resolves a backend. The empty name means DefaultName.
func ByName(name string) (Selector, error) {
	if name == "" {
		name = DefaultName
	}
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("selector: unknown backend %q (registered: %v)", name, Names())
	}
	return s, nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered backends in Names order.
func All() []Selector {
	var out []Selector
	for _, name := range Names() {
		out = append(out, registry[name])
	}
	return out
}

// FprintList writes the registered backends and their configuration knobs
// — the rendition behind `-selector list` in cmd/experiments and
// cmd/specsim.
func FprintList(w io.Writer) {
	fmt.Fprintln(w, "registered region-selection backends:")
	for _, s := range All() {
		name := s.Name()
		if name == DefaultName {
			name += " (default)"
		}
		fmt.Fprintf(w, "\n  %s\n", name)
		for _, k := range s.Knobs() {
			fmt.Fprintf(w, "    %-24s default %-6s %s\n", k.Name, k.Default, k.Doc)
		}
	}
}

// validate rejects degenerate inputs shared by every backend.
func validate(slices []simpoint.Slice, cfg Config) error {
	if len(slices) == 0 {
		return fmt.Errorf("selector: no slices")
	}
	if cfg.SliceLen == 0 {
		return fmt.Errorf("selector: zero slice length")
	}
	return nil
}

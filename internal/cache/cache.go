// Package cache implements the functional cache simulator standing in for
// the `allcache` Pintool of the paper: a configurable multi-level hierarchy
// of set-associative (or direct-mapped) caches with true-LRU replacement,
// counting accesses and misses per level.
//
// Each set keeps its resident lines in recency order, most recent first:
// a hit moves its line to the front, a miss pushes the new line onto the
// front and, in a full set, drops the last (least recent) one. Under true
// LRU which lines a set holds does not depend on the way each line sits
// in, so no victim is ever searched for and every hit/miss is exactly
// that of a per-way stamp model.
//
// Table I of the paper defines the hierarchy used for all miss-rate
// experiments; TableIConfig reproduces it exactly.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// Config describes one cache level.
type Config struct {
	// Name labels the level in reports ("L1D", "L2", ...).
	Name string
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// Ways is the associativity; 1 means direct-mapped.
	Ways int
	// LineBytes is the cache-line size.
	LineBytes uint64
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() uint64 {
	return c.SizeBytes / (c.LineBytes * uint64(c.Ways))
}

// Validate reports configuration errors (zero sizes, non-power-of-two
// geometry, one-byte lines).
func (c Config) Validate() error {
	if c.SizeBytes == 0 || c.LineBytes == 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: zero-size configuration", c.Name)
	}
	if c.SizeBytes%(c.LineBytes*uint64(c.Ways)) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*linesize", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d is not a power of two", c.Name, sets)
	}
	// A line of at least two bytes keeps every line address below 2^63,
	// so key (tag+1) never wraps to the empty-slot marker 0.
	if c.LineBytes < 2 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d is not a power of two of at least 2", c.Name, c.LineBytes)
	}
	return nil
}

// Stats counts the traffic a cache level has seen.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single level. It is not safe for concurrent use.
type Cache struct {
	cfg Config
	// keys holds sets*ways line keys, set-major. A key is tag+1; each set
	// keeps its resident keys in recency order from index 0 (most
	// recently used), followed by zeros for the ways not yet filled.
	keys      []uint64
	ways      int
	setMask   uint64
	setShift  uint
	lineShift uint
	stats     Stats
	warmup    bool
}

// New builds a cache level from a validated config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:       cfg,
		keys:      make([]uint64, sets*uint64(cfg.Ways)),
		ways:      cfg.Ways,
		setMask:   sets - 1,
		setShift:  uint(bits.TrailingZeros64(sets)),
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
	}, nil
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the counters collected outside warm-up.
func (c *Cache) Stats() Stats { return c.stats }

// SetWarmup toggles warm-up mode: accesses update cache state but are not
// counted. This implements the paper's mitigation of running warm-up
// instructions before each simulation point (Section IV-D).
func (c *Cache) SetWarmup(on bool) { c.warmup = on }

// Reset invalidates all lines and zeroes the statistics.
func (c *Cache) Reset() {
	clear(c.keys)
	c.stats = Stats{}
}

// ResetStats zeroes the counters but keeps cache contents (used between a
// warm-up period and a measured region when warm-up mode is not in play).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// set returns the recency-ordered keys of the set holding addr and the
// line's key.
func (c *Cache) set(addr uint64) ([]uint64, uint64) {
	lineAddr := addr >> c.lineShift
	base := int(lineAddr&c.setMask) * c.ways
	return c.keys[base : base+c.ways], lineAddr>>c.setShift + 1
}

// Access looks up the line containing addr, filling it on a miss, and
// reports whether the access hit. Addresses are byte addresses.
func (c *Cache) Access(addr uint64) bool {
	set, key := c.set(addr)
	if !c.warmup {
		c.stats.Accesses++
	}
	// Move to front in one pass: each key slides back one slot until the
	// accessed key's old slot (a hit) or the first empty slot absorbs the
	// shift; a miss in a full set drops the last, least recent key.
	prev := key
	for i, k := range set {
		set[i] = prev
		if k == key {
			return true
		}
		if k == 0 {
			break
		}
		prev = k
	}
	if !c.warmup {
		c.stats.Misses++
	}
	return false
}

// install places the line holding addr into the cache without touching
// statistics (used by the prefetcher).
func (c *Cache) install(addr uint64) {
	saved := c.warmup
	c.warmup = true
	c.Access(addr)
	c.warmup = saved
}

// Contains reports whether the line holding addr is currently cached,
// without touching LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	set, key := c.set(addr)
	return slices.Contains(set, key)
}

// HierarchyConfig describes a three-level hierarchy with a split L1 and
// optional instruction/data TLBs (allcache simulates "instruction+data
// TLB+cache hierarchies"; zero-value TLB configs disable them).
type HierarchyConfig struct {
	L1I  Config
	L1D  Config
	L2   Config
	L3   Config
	ITLB TLBConfig
	DTLB TLBConfig
}

// TableIConfig is the paper's Table I allcache configuration: 32-way 32 kB
// L1I and L1D, a unified direct-mapped 2 MB L2 and a unified direct-mapped
// 16 MB L3, all with 32-byte lines.
func TableIConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:  Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 32, LineBytes: 32},
		L1D:  Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 32, LineBytes: 32},
		L2:   Config{Name: "L2", SizeBytes: 2 << 20, Ways: 1, LineBytes: 32},
		L3:   Config{Name: "L3", SizeBytes: 16 << 20, Ways: 1, LineBytes: 32},
		ITLB: DefaultITLB(),
		DTLB: DefaultDTLB(),
	}
}

// ScaleDivs are per-level capacity divisors for running scaled workloads.
// The reproduction runs benchmarks at ~1/125000 of the paper's dynamic
// instruction counts, so cache capacities must shrink for the
// cold-start-vs-warm-up behaviour (Figure 8) to keep the paper's shape. The
// scaling is deliberately non-uniform: the paper's 30 M-instruction slices
// cover the 2 MB L2 hundreds of times over but the 16 MB LLC only a few
// times, and preserving those coverage ratios against our much shorter
// slices requires shrinking the outer levels more than L1.
type ScaleDivs struct {
	L1 uint64
	L2 uint64
	L3 uint64
}

// ScaledConfig shrinks one cache configuration by div, preserving line size
// and reducing associativity when the shrunken cache has fewer lines than
// ways. The unscaled config documents the paper's Table I/III machine.
func ScaledConfig(c Config, div uint64) Config {
	if div <= 1 {
		return c
	}
	out := c
	out.SizeBytes = c.SizeBytes / div
	minSize := c.LineBytes
	if out.SizeBytes < minSize {
		out.SizeBytes = minSize
	}
	if lines := out.SizeBytes / out.LineBytes; uint64(out.Ways) > lines {
		out.Ways = int(lines)
	}
	return out
}

// ScaledHierarchy applies the per-level divisors to a hierarchy. TLB
// capacities follow the L2 divisor (bounded below at 8 entries) so scaled
// working sets still exercise them.
func ScaledHierarchy(cfg HierarchyConfig, divs ScaleDivs) HierarchyConfig {
	return HierarchyConfig{
		L1I:  ScaledConfig(cfg.L1I, divs.L1),
		L1D:  ScaledConfig(cfg.L1D, divs.L1),
		L2:   ScaledConfig(cfg.L2, divs.L2),
		L3:   ScaledConfig(cfg.L3, divs.L3),
		ITLB: scaledTLB(cfg.ITLB, divs.L2),
		DTLB: scaledTLB(cfg.DTLB, divs.L2),
	}
}

// scaledTLB shrinks a TLB's entry count to at most Entries/div (but at
// least 8), rounded down to ways × 2^k so the set count stays a power of
// two and the geometry valid.
func scaledTLB(cfg TLBConfig, div uint64) TLBConfig {
	if !cfg.Enabled() || div <= 1 {
		return cfg
	}
	out := cfg
	entries := max(uint64(cfg.Entries)/div, 8)
	out.Ways = min(out.Ways, int(entries))
	sets := 1 << (bits.Len64(entries/uint64(out.Ways)) - 1)
	out.Entries = out.Ways * sets
	return out
}

// Hierarchy is a three-level inclusive-lookup cache model: data accesses
// probe L1D, misses probe L2, L2 misses probe L3; instruction fetches probe
// L1I and then share L2/L3. This mirrors allcache's functional
// (latency-free) behaviour — it measures hit/miss ratios only.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	L3  *Cache
	// ITLB and DTLB are nil when disabled.
	ITLB *TLB
	DTLB *TLB

	// prefetch enables a next-line prefetcher on the data path: every L1D
	// miss silently installs the following line throughout the hierarchy,
	// the way an i7-class stream prefetcher hides strided walks. allcache
	// (the paper's functional simulator) has no prefetcher; the timing
	// models enable it.
	prefetch bool
}

// EnablePrefetch turns the next-line data prefetcher on or off.
func (h *Hierarchy) EnablePrefetch(on bool) { h.prefetch = on }

// NewHierarchy builds a hierarchy, validating each level.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	l3, err := New(cfg.L3)
	if err != nil {
		return nil, err
	}
	itlb, err := NewTLB(cfg.ITLB)
	if err != nil {
		return nil, err
	}
	dtlb, err := NewTLB(cfg.DTLB)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, L3: l3, ITLB: itlb, DTLB: dtlb}, nil
}

// AccessLevel identifies how deep an access had to go.
type AccessLevel int

// Access depth outcomes, from an L1 hit to a miss in every level.
const (
	HitL1 AccessLevel = iota
	HitL2
	HitL3
	MissAll
)

// Data performs a data access (load or store — allcache treats both as
// line fills) and reports the level that satisfied it.
func (h *Hierarchy) Data(addr uint64) AccessLevel {
	if h.DTLB != nil {
		h.DTLB.Access(addr)
	}
	lvl := h.dataLookup(addr)
	if h.prefetch && lvl != HitL1 {
		// Install the next line silently (no statistics) at every level.
		next := addr + h.L1D.cfg.LineBytes
		h.L1D.install(next)
		h.L2.install(next)
		h.L3.install(next)
	}
	return lvl
}

func (h *Hierarchy) dataLookup(addr uint64) AccessLevel {
	if h.L1D.Access(addr) {
		return HitL1
	}
	if h.L2.Access(addr) {
		return HitL2
	}
	if h.L3.Access(addr) {
		return HitL3
	}
	return MissAll
}

// Fetch performs an instruction fetch.
func (h *Hierarchy) Fetch(addr uint64) AccessLevel {
	if h.ITLB != nil {
		h.ITLB.Access(addr)
	}
	if h.L1I.Access(addr) {
		return HitL1
	}
	if h.L2.Access(addr) {
		return HitL2
	}
	if h.L3.Access(addr) {
		return HitL3
	}
	return MissAll
}

// SetWarmup toggles warm-up mode on every level.
func (h *Hierarchy) SetWarmup(on bool) {
	h.L1I.SetWarmup(on)
	h.L1D.SetWarmup(on)
	h.L2.SetWarmup(on)
	h.L3.SetWarmup(on)
	if h.ITLB != nil {
		h.ITLB.SetWarmup(on)
	}
	if h.DTLB != nil {
		h.DTLB.SetWarmup(on)
	}
}

// Reset clears contents and statistics of every level.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	h.L3.Reset()
	if h.ITLB != nil {
		h.ITLB.Reset()
	}
	if h.DTLB != nil {
		h.DTLB.Reset()
	}
}

// MissRates returns the L1D, L2 and L3 miss rates (the three the paper
// plots in Figure 8).
func (h *Hierarchy) MissRates() (l1d, l2, l3 float64) {
	return h.L1D.Stats().MissRate(), h.L2.Stats().MissRate(), h.L3.Stats().MissRate()
}

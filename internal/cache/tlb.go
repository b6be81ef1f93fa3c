package cache

import "fmt"

// TLBConfig sizes a translation lookaside buffer. The paper's allcache tool
// is "a functional simulator of instruction+data TLB+cache hierarchies"
// (Section II-B); the TLB side is modelled here as a small fully-managed
// cache of page translations. A zero-value config disables the TLB.
type TLBConfig struct {
	// Entries is the total translation count.
	Entries int
	// Ways is the associativity.
	Ways int
	// PageBytes is the page size (4 kB on the paper's machines).
	PageBytes uint64
}

// Enabled reports whether the config describes a real TLB.
func (c TLBConfig) Enabled() bool { return c.Entries > 0 }

// Validate reports configuration errors for enabled TLBs.
func (c TLBConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.Ways <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("cache: TLB with %d entries, %d ways", c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: TLB set count %d is not a power of two", sets)
	}
	if c.PageBytes < 2 || c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("cache: TLB page size %d", c.PageBytes)
	}
	return nil
}

// DefaultITLB is an i7-class 128-entry 4-way instruction TLB over 4 kB
// pages.
func DefaultITLB() TLBConfig { return TLBConfig{Entries: 128, Ways: 4, PageBytes: 4096} }

// DefaultDTLB is an i7-class 64-entry 4-way data TLB over 4 kB pages.
func DefaultDTLB() TLBConfig { return TLBConfig{Entries: 64, Ways: 4, PageBytes: 4096} }

// TLB is a translation lookaside buffer, implemented as a page-granular
// cache (a translation hit is exactly a tag hit on the page number).
type TLB struct {
	cache *Cache
}

// NewTLB builds a TLB; a disabled config returns (nil, nil).
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := New(Config{
		Name:      "TLB",
		SizeBytes: uint64(cfg.Entries) * cfg.PageBytes,
		Ways:      cfg.Ways,
		LineBytes: cfg.PageBytes,
	})
	if err != nil {
		return nil, err
	}
	return &TLB{cache: c}, nil
}

// Access translates the page holding addr, filling on a miss, and reports
// whether the translation hit.
func (t *TLB) Access(addr uint64) bool { return t.cache.Access(addr) }

// Stats returns hit/miss counters.
func (t *TLB) Stats() Stats { return t.cache.Stats() }

// SetWarmup toggles statistics-free warm-up mode.
func (t *TLB) SetWarmup(on bool) { t.cache.SetWarmup(on) }

// Reset clears translations and statistics.
func (t *TLB) Reset() { t.cache.Reset() }

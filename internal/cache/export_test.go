package cache

import "math/bits"

// refCache is the stamp-and-victim-scan kernel the recency-ordered sets
// replaced: every line carries a last-use stamp from a global clock, and a
// miss fills the first invalid way or else evicts the smallest stamp. It is
// kept only as the reference the new kernel must match access for access
// (TestAccessMatchesReference, FuzzAccessMatchesReference).
type refCache struct {
	lines     []refLine // sets * ways, set-major
	ways      int
	setMask   uint64
	lineShift uint
	clock     uint64
	stats     Stats
	warmup    bool
}

type refLine struct {
	tag   uint64
	stamp uint64
	valid bool
}

func newRefCache(cfg Config) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	return &refCache{
		lines:     make([]refLine, sets*uint64(cfg.Ways)),
		ways:      cfg.Ways,
		setMask:   sets - 1,
		lineShift: uint(bits.TrailingZeros64(cfg.LineBytes)),
	}, nil
}

func (c *refCache) reset() {
	clear(c.lines)
	c.stats = Stats{}
	c.clock = 0
}

func (c *refCache) install(addr uint64) {
	saved := c.warmup
	c.warmup = true
	c.accessReference(addr)
	c.warmup = saved
}

func (c *refCache) accessReference(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	tag := lineAddr >> bits.TrailingZeros64(c.setMask+1)
	base := int(set) * c.ways
	ways := c.lines[base : base+c.ways]
	c.clock++
	if !c.warmup {
		c.stats.Accesses++
	}
	victim := 0
	oldest := uint64(1<<64 - 1)
	for i := range ways {
		l := &ways[i]
		if l.valid && l.tag == tag {
			l.stamp = c.clock
			return true
		}
		if !l.valid {
			// Prefer invalid ways; stamp 0 guarantees selection below.
			if oldest != 0 {
				victim, oldest = i, 0
			}
			continue
		}
		if l.stamp < oldest {
			victim, oldest = i, l.stamp
		}
	}
	if !c.warmup {
		c.stats.Misses++
	}
	ways[victim] = refLine{tag: tag, stamp: c.clock, valid: true}
	return false
}

func (c *refCache) contains(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	set := lineAddr & c.setMask
	tag := lineAddr >> bits.TrailingZeros64(c.setMask+1)
	base := int(set) * c.ways
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

package cache

import "testing"

// replayAgainstReference decodes ops into a stream of cache operations and
// applies each to both the recency-ordered kernel and the stamp-and-scan
// reference, failing at the first hit/miss, Contains or Stats divergence.
// Near and wide addresses are counted in steps of stride bytes. One op
// byte selects the operation; its low nibble:
//
//	0-9   Access of a near address (one byte)
//	10-11 Access of a wide address (two bytes)
//	12    Access of a raw 64-bit address (eight bytes)
//	13    toggle warm-up
//	14    install (the prefetcher's fill) of a near address
//	15    Contains of a near address, or Reset when the high nibble is 15
//
// Missing bytes read as zero. It returns the hits and misses seen.
func replayAgainstReference(t *testing.T, cfg Config, stride uint64, ops []byte) (hits, misses int) {
	t.Helper()
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := func() uint64 {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return uint64(b)
	}
	var g, w bool
	access := func(addr uint64) {
		g, w = got.Access(addr), want.accessReference(addr)
		if w {
			hits++
		} else {
			misses++
		}
	}
	for i := 0; len(ops) > 0; i++ {
		op := next()
		g, w = false, false
		switch code := op & 0xf; {
		case code < 10:
			access(next() * stride)
		case code < 12:
			access((next()<<8 | next()) * stride)
		case code == 12:
			var addr uint64
			for range 8 {
				addr = addr<<8 | next()
			}
			access(addr)
		case code == 13:
			got.SetWarmup(!got.warmup)
			want.warmup = !want.warmup
		case code == 14:
			addr := next() * stride
			got.install(addr)
			want.install(addr)
		case op>>4 == 15:
			got.Reset()
			want.reset()
		default:
			addr := next() * stride
			g, w = got.Contains(addr), want.contains(addr)
		}
		if g != w {
			t.Fatalf("%s op %d (%#x): kernel %v, reference %v", cfg.Name, i, op, g, w)
		}
		if got.Stats() != want.stats {
			t.Fatalf("%s op %d (%#x): kernel stats %+v, reference %+v", cfg.Name, i, op, got.Stats(), want.stats)
		}
	}
	return hits, misses
}

// tlbAsCache is the page-granular cache a TLB config builds (see NewTLB).
func tlbAsCache(name string, c TLBConfig) Config {
	return Config{Name: name, SizeBytes: uint64(c.Entries) * c.PageBytes, Ways: c.Ways, LineBytes: c.PageBytes}
}

// referenceGeometries are the shapes the kernel must match the reference
// on: the degenerate ones, plus every level of the Table I (allcache) and
// Table III (timing model) hierarchies and both TLBs at each workload
// scale. Table III's caches and the scale divisors are restated here from
// timing.TableIIIConfig and workload.Scale, which import this package.
func referenceGeometries() []Config {
	out := []Config{
		{Name: "direct-mapped", SizeBytes: 1 << 10, Ways: 1, LineBytes: 32},
		{Name: "2x32-way", SizeBytes: 2 << 10, Ways: 32, LineBytes: 32},
		{Name: "fully-associative", SizeBytes: 16 * 64, Ways: 16, LineBytes: 64},
		{Name: "two-byte-lines", SizeBytes: 8, Ways: 4, LineBytes: 2},
	}
	tableIII := HierarchyConfig{
		L1I:  Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L1D:  Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:   Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64},
		L3:   Config{Name: "L3", SizeBytes: 8 << 20, Ways: 16, LineBytes: 64},
		ITLB: DefaultITLB(),
		DTLB: DefaultDTLB(),
	}
	scales := []struct {
		name string
		divs ScaleDivs
	}{
		{"full", ScaleDivs{L1: 4, L2: 64, L3: 64}},
		{"medium", ScaleDivs{L1: 8, L2: 128, L3: 128}},
		{"small", ScaleDivs{L1: 16, L2: 512, L3: 512}},
	}
	for _, sc := range scales {
		for i, base := range []HierarchyConfig{TableIConfig(), tableIII} {
			h := ScaledHierarchy(base, sc.divs)
			for _, c := range []Config{h.L1I, h.L1D, h.L2, h.L3, tlbAsCache("ITLB", h.ITLB), tlbAsCache("DTLB", h.DTLB)} {
				c.Name = []string{"tableI", "tableIII"}[i] + "_" + sc.name + "_" + c.Name
				out = append(out, c)
			}
		}
	}
	return out
}

// TestAccessMatchesReference drives every reference geometry with a mixed
// stream — mostly near addresses that hit and evict, some wide and raw
// ones, warm-up toggles, prefetch installs, Contains probes and Resets —
// and requires the per-access outcomes and the Stats to match the
// stamp-and-scan kernel exactly.
func TestAccessMatchesReference(t *testing.T) {
	x := uint64(0x9e3779b97f4a7c15)
	ops := make([]byte, 60000)
	for i := range ops {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		ops[i] = byte(x)
		// Keep Resets rare so sets fill and evict between them.
		if ops[i] == 0xff && x>>60 != 0 {
			ops[i] = 0
		}
	}
	for _, cfg := range referenceGeometries() {
		t.Run(cfg.Name, func(t *testing.T) {
			// The 256 near addresses span twice the capacity, so every
			// geometry both hits and evicts.
			stride := max(cfg.SizeBytes/128, cfg.LineBytes/2)
			hits, misses := replayAgainstReference(t, cfg, stride, ops)
			if hits == 0 || misses == 0 {
				t.Errorf("stream too easy: %d hits, %d misses", hits, misses)
			}
		})
	}
}

// FuzzAccessMatchesReference runs replayAgainstReference on a geometry
// decoded from the first two bytes — ways 1..32, sets 1..16, lines of
// 2..64 bytes — so the fuzzer explores shapes as well as streams. The seed
// corpus in testdata/fuzz/FuzzAccessMatchesReference replays under plain
// `go test`.
func FuzzAccessMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var g0, g1 byte
		if len(data) > 0 {
			g0, data = data[0], data[1:]
		}
		if len(data) > 0 {
			g1, data = data[0], data[1:]
		}
		ways := uint64(1) << (g0 % 6)
		sets := uint64(1) << (g0 >> 3 % 5)
		line := uint64(2) << (g1 % 6)
		cfg := Config{Name: "fuzz", SizeBytes: sets * ways * line, Ways: int(ways), LineBytes: line}
		replayAgainstReference(t, cfg, line/2, data)
	})
}

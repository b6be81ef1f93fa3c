package cache

import "testing"

func TestScaledConfigShrinksPreservingGeometry(t *testing.T) {
	base := Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 32, LineBytes: 32}
	s := ScaledConfig(base, 4)
	if s.SizeBytes != 8<<10 {
		t.Errorf("size = %d", s.SizeBytes)
	}
	if s.LineBytes != base.LineBytes {
		t.Error("line size changed")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
}

func TestScaledConfigReducesWaysWhenTiny(t *testing.T) {
	base := Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 32, LineBytes: 32}
	s := ScaledConfig(base, 64) // 512B = 16 lines < 32 ways
	if s.Ways != 16 {
		t.Errorf("ways = %d, want 16", s.Ways)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
}

func TestScaledConfigFloorsAtOneLine(t *testing.T) {
	base := Config{Name: "tiny", SizeBytes: 64, Ways: 1, LineBytes: 32}
	s := ScaledConfig(base, 1024)
	if s.SizeBytes < s.LineBytes {
		t.Errorf("scaled below one line: %d", s.SizeBytes)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("floored config invalid: %v", err)
	}
}

func TestScaledConfigIdentityDivisor(t *testing.T) {
	base := Config{Name: "x", SizeBytes: 1024, Ways: 2, LineBytes: 32}
	if ScaledConfig(base, 1) != base || ScaledConfig(base, 0) != base {
		t.Error("div <= 1 should be identity")
	}
}

func TestScaledHierarchyPerLevelDivisors(t *testing.T) {
	h := ScaledHierarchy(TableIConfig(), ScaleDivs{L1: 4, L2: 64, L3: 64})
	if h.L1D.SizeBytes != 8<<10 {
		t.Errorf("L1D = %d", h.L1D.SizeBytes)
	}
	if h.L2.SizeBytes != 32<<10 {
		t.Errorf("L2 = %d", h.L2.SizeBytes)
	}
	if h.L3.SizeBytes != 256<<10 {
		t.Errorf("L3 = %d", h.L3.SizeBytes)
	}
	if _, err := NewHierarchy(h); err != nil {
		t.Errorf("scaled hierarchy does not build: %v", err)
	}
}

func TestPrefetchHidesSequentialStream(t *testing.T) {
	cfg := HierarchyConfig{
		L1I: Config{Name: "L1I", SizeBytes: 4 << 10, Ways: 8, LineBytes: 64},
		L1D: Config{Name: "L1D", SizeBytes: 4 << 10, Ways: 8, LineBytes: 64},
		L2:  Config{Name: "L2", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L3:  Config{Name: "L3", SizeBytes: 256 << 10, Ways: 16, LineBytes: 64},
	}
	run := func(prefetch bool) float64 {
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.EnablePrefetch(prefetch)
		// Stream 4MB line by line: every line is cold.
		for addr := uint64(0); addr < 4<<20; addr += 64 {
			h.Data(addr)
		}
		return h.L1D.Stats().MissRate()
	}
	cold := run(false)
	pref := run(true)
	if cold < 0.99 {
		t.Fatalf("un-prefetched stream should miss every line: %v", cold)
	}
	if pref > 0.55 {
		t.Errorf("next-line prefetch should roughly halve stream misses: %v", pref)
	}
}

func TestPrefetchDoesNotCountStats(t *testing.T) {
	h, err := NewHierarchy(TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.EnablePrefetch(true)
	h.Data(0x1000) // miss; prefetches 0x1020 silently
	if got := h.L1D.Stats().Accesses; got != 1 {
		t.Errorf("prefetch counted as an access: %d", got)
	}
	// The prefetched line must be resident.
	if !h.L1D.Contains(0x1000 + 32) {
		t.Error("next line not prefetched")
	}
}

func TestScaledTLBValidAtEveryDivisor(t *testing.T) {
	for _, base := range []TLBConfig{DefaultITLB(), DefaultDTLB()} {
		for div := uint64(1); div <= 64; div++ {
			got := scaledTLB(base, div)
			if err := got.Validate(); err != nil {
				t.Errorf("scaledTLB(%+v, %d) = %+v: %v", base, div, got, err)
			}
			if got.Entries > max(base.Entries/int(div), 8) {
				t.Errorf("scaledTLB(%+v, %d) = %d entries, above the %d cap", base, div, got.Entries, max(base.Entries/int(div), 8))
			}
		}
	}
	// The shipping scales divide TLBs by their L2 divisor; all are powers
	// of two, and all floor at 8 entries of 4 ways.
	for _, div := range []uint64{64, 128, 512} {
		for _, base := range []TLBConfig{DefaultITLB(), DefaultDTLB()} {
			if got := scaledTLB(base, div); got.Entries != 8 || got.Ways != 4 {
				t.Errorf("scaledTLB(%+v, %d) = %+v, want 8 entries of 4 ways", base, div, got)
			}
		}
	}
}

package cache

import "testing"

func TestTLBConfigValidate(t *testing.T) {
	if err := DefaultITLB().Validate(); err != nil {
		t.Errorf("default ITLB invalid: %v", err)
	}
	if err := DefaultDTLB().Validate(); err != nil {
		t.Errorf("default DTLB invalid: %v", err)
	}
	if err := (TLBConfig{}).Validate(); err != nil {
		t.Errorf("disabled TLB should validate: %v", err)
	}
	bad := []TLBConfig{
		{Entries: 64, Ways: 0, PageBytes: 4096},
		{Entries: 63, Ways: 4, PageBytes: 4096},
		{Entries: 48, Ways: 4, PageBytes: 4096}, // 12 sets: not a power of two
		{Entries: 64, Ways: 4, PageBytes: 0},
		{Entries: 64, Ways: 4, PageBytes: 1},
		{Entries: 64, Ways: 4, PageBytes: 5000},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad TLB config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNewTLBDisabled(t *testing.T) {
	tlb, err := NewTLB(TLBConfig{})
	if err != nil || tlb != nil {
		t.Errorf("disabled TLB: %v %v", tlb, err)
	}
}

func TestTLBPageGranularity(t *testing.T) {
	tlb, err := NewTLB(DefaultDTLB())
	if err != nil {
		t.Fatal(err)
	}
	if tlb.Access(0x1000) {
		t.Error("first translation should miss")
	}
	// Any address in the same 4kB page hits.
	if !tlb.Access(0x1fff) {
		t.Error("same-page access missed")
	}
	if tlb.Access(0x2000) {
		t.Error("next page should miss")
	}
	s := tlb.Stats()
	if s.Accesses != 3 || s.Misses != 2 {
		t.Errorf("stats %+v", s)
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	// 64-entry TLB: touching 65 distinct pages twice must evict.
	tlb, _ := NewTLB(DefaultDTLB())
	for round := 0; round < 2; round++ {
		for p := uint64(0); p < 65; p++ {
			tlb.Access(p * 4096)
		}
	}
	s := tlb.Stats()
	if s.Misses <= 65 {
		t.Errorf("no capacity misses: %+v", s)
	}
}

func TestTLBWarmupAndReset(t *testing.T) {
	tlb, _ := NewTLB(DefaultDTLB())
	tlb.SetWarmup(true)
	tlb.Access(0x4000)
	tlb.SetWarmup(false)
	if s := tlb.Stats(); s.Accesses != 0 {
		t.Errorf("warm-up counted: %+v", s)
	}
	if !tlb.Access(0x4000) {
		t.Error("warm-up did not install the translation")
	}
	tlb.Reset()
	if tlb.Access(0x4000) {
		t.Error("Reset kept translations")
	}
}

func TestHierarchyTLBsWired(t *testing.T) {
	h, err := NewHierarchy(TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h.ITLB == nil || h.DTLB == nil {
		t.Fatal("Table I hierarchy should carry TLBs")
	}
	h.Data(0x1000)
	h.Fetch(0x400000)
	if h.DTLB.Stats().Accesses != 1 {
		t.Errorf("DTLB accesses %d", h.DTLB.Stats().Accesses)
	}
	if h.ITLB.Stats().Accesses != 1 {
		t.Errorf("ITLB accesses %d", h.ITLB.Stats().Accesses)
	}
	h.Reset()
	if h.DTLB.Stats().Accesses != 0 {
		t.Error("Reset missed the DTLB")
	}
}

func TestScaledTLB(t *testing.T) {
	s := scaledTLB(DefaultDTLB(), 64)
	if !s.Enabled() {
		t.Fatal("scaling disabled the TLB")
	}
	if s.Entries < 8 {
		t.Errorf("entries floored too low: %d", s.Entries)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled TLB invalid: %v", err)
	}
	if got := scaledTLB(TLBConfig{}, 8); got.Enabled() {
		t.Error("scaling enabled a disabled TLB")
	}
	if got := scaledTLB(DefaultDTLB(), 1); got != DefaultDTLB() {
		t.Error("div 1 should be identity")
	}
}

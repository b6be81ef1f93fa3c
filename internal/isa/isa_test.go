package isa

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		NoMem:  "NO_MEM",
		MemR:   "MEM_R",
		MemW:   "MEM_W",
		MemRW:  "MEM_RW",
		Branch: "BRANCH",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindPredicates(t *testing.T) {
	tests := []struct {
		k                  Kind
		reads, writes, mem bool
	}{
		{NoMem, false, false, false},
		{MemR, true, false, true},
		{MemW, false, true, true},
		{MemRW, true, true, true},
		{Branch, false, false, false},
	}
	for _, tt := range tests {
		if got := tt.k.ReadsMemory(); got != tt.reads {
			t.Errorf("%v.ReadsMemory() = %v", tt.k, got)
		}
		if got := tt.k.WritesMemory(); got != tt.writes {
			t.Errorf("%v.WritesMemory() = %v", tt.k, got)
		}
		if got := tt.k.AccessesMemory(); got != tt.mem {
			t.Errorf("%v.AccessesMemory() = %v", tt.k, got)
		}
	}
}

func TestMixKindFoldsBranch(t *testing.T) {
	if Branch.MixKind() != NoMem {
		t.Error("Branch should fold to NoMem for mix accounting")
	}
	for _, k := range []Kind{NoMem, MemR, MemW, MemRW} {
		if k.MixKind() != k {
			t.Errorf("%v.MixKind() changed the kind", k)
		}
	}
}

func TestMixAddKindAndTotal(t *testing.T) {
	var m Mix
	m.AddKind(NoMem, 10)
	m.AddKind(MemR, 5)
	m.AddKind(MemW, 3)
	m.AddKind(MemRW, 2)
	m.AddKind(Branch, 4) // folds into NoMem

	if m.NoMem != 14 || m.MemR != 5 || m.MemW != 3 || m.MemRW != 2 {
		t.Fatalf("unexpected mix: %+v", m)
	}
	if m.Total() != 24 {
		t.Errorf("Total() = %d, want 24", m.Total())
	}
	if m.MemOps() != 10 {
		t.Errorf("MemOps() = %d, want 10", m.MemOps())
	}
}

func TestMixAdd(t *testing.T) {
	a := Mix{NoMem: 1, MemR: 2, MemW: 3, MemRW: 4}
	b := Mix{NoMem: 10, MemR: 20, MemW: 30, MemRW: 40}
	a.Add(b)
	want := Mix{NoMem: 11, MemR: 22, MemW: 33, MemRW: 44}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}

func TestMixFractionsSumToOne(t *testing.T) {
	f := func(noMem, memR, memW, memRW uint16) bool {
		m := Mix{NoMem: uint64(noMem), MemR: uint64(memR), MemW: uint64(memW), MemRW: uint64(memRW)}
		fr := m.Fractions()
		sum := fr[0] + fr[1] + fr[2] + fr[3]
		if m.Total() == 0 {
			return sum == 0
		}
		return sum > 0.999999 && sum < 1.000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixFractionsZero(t *testing.T) {
	var m Mix
	if fr := m.Fractions(); fr != [4]float64{} {
		t.Errorf("zero mix fractions = %v", fr)
	}
}

func TestMixScale(t *testing.T) {
	m := Mix{NoMem: 100, MemR: 50, MemW: 25, MemRW: 10}
	half := m.Scale(0.5)
	want := Mix{NoMem: 50, MemR: 25, MemW: 13, MemRW: 5}
	if half != want {
		t.Errorf("Scale(0.5) = %+v, want %+v", half, want)
	}
	if m.Scale(1.0) != m {
		t.Error("Scale(1.0) should be identity")
	}
}

func TestBlockFinalize(t *testing.T) {
	b := &Block{
		ID: 0,
		PC: 0x1000,
		Instrs: []StaticInstr{
			{Kind: NoMem, Size: 4},
			{Kind: MemR, Size: 4},
			{Kind: MemW, Size: 4},
			{Kind: MemRW, Size: 4},
			{Kind: Branch, Size: 2},
		},
	}
	b.Finalize()
	if b.Len() != 5 {
		t.Errorf("Len() = %d, want 5", b.Len())
	}
	wantMem := []StaticInstr{{Kind: MemR, Size: 4}, {Kind: MemW, Size: 4}, {Kind: MemRW, Size: 4}}
	if !slices.Equal(b.MemInstrs, wantMem) {
		t.Errorf("MemInstrs = %+v, want %+v", b.MemInstrs, wantMem)
	}
	if b.FetchBytes != 18 {
		t.Errorf("FetchBytes = %d, want 18", b.FetchBytes)
	}
	wantMix := Mix{NoMem: 2, MemR: 1, MemW: 1, MemRW: 1}
	if b.Mix != wantMix {
		t.Errorf("Mix = %+v, want %+v", b.Mix, wantMix)
	}
	if b.Mix.Total() != uint64(b.Len()) {
		t.Error("mix total should equal block length")
	}
}

func TestBlockFinalizeIdempotent(t *testing.T) {
	b := &Block{Instrs: []StaticInstr{{Kind: MemR, Size: 4}, {Kind: NoMem, Size: 4}}}
	b.Finalize()
	first, mem, fetch := b.Mix, len(b.MemInstrs), b.FetchBytes
	b.Finalize()
	if b.Mix != first || len(b.MemInstrs) != mem || b.FetchBytes != fetch {
		t.Error("Finalize is not idempotent")
	}
}

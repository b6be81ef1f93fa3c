package simpoint

import (
	"reflect"
	"testing"
)

// TestLadderSeedIgnoresForeignResult pins Seed's guard: a result clustered
// under another seed scores every candidate differently, so a ladder handed
// one must ignore it and still reproduce Cluster at every MaxK.
func TestLadderSeedIgnoresForeignResult(t *testing.T) {
	p := phasedProgram(t, 4, 80000, 5)
	slices, total, err := Profile(p, 512)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(512)
	cfg.MaxK = 12
	foreignCfg := cfg
	foreignCfg.Seed++
	foreign, err := Cluster(p.Name, slices, total, foreignCfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLadder(p.Name, slices, total, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Seed(foreign)
	for _, maxK := range []int{12, 7} {
		want := cfg
		want.MaxK = maxK
		wantRes, err := Cluster(p.Name, slices, total, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Cluster(maxK)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRes) {
			t.Fatalf("maxK=%d: seeded ladder differs from Cluster:\n got: %+v\nwant: %+v", maxK, got, wantRes)
		}
	}
}

package program

import (
	"testing"
	"testing/quick"

	"specsampling/internal/isa"
)

// testProgram builds a small 3-phase program for the tests.
func testProgram(t testing.TB, seed uint64, total uint64) *Program {
	t.Helper()
	pattern := func(base uint64, ws uint64) MemPattern {
		return MemPattern{
			Base:            base,
			WorkingSetBytes: ws,
			Stride:          8,
			SeqPermille:     400,
			StreamPermille:  100,
			StreamBase:      1 << 36,
			StreamBytes:     1 << 28,
		}
	}
	specs := []PhaseSpec{
		{Blocks: 6, MinBlockLen: 4, MaxBlockLen: 12, Mix: [4]float64{0.5, 0.35, 0.12, 0.03},
			Pattern: pattern(1<<20, 64<<10), JumpPermille: 30, ShareBlocksWith: -1},
		{Blocks: 8, MinBlockLen: 4, MaxBlockLen: 10, Mix: [4]float64{0.6, 0.25, 0.15, 0},
			Pattern: pattern(16<<20, 512<<10), JumpPermille: 80, ShareBlocksWith: -1},
		{Blocks: 4, MinBlockLen: 6, MaxBlockLen: 14, Mix: [4]float64{0.4, 0.45, 0.15, 0},
			Pattern: pattern(64<<20, 2<<20), JumpPermille: 10, ShareBlocksWith: 0, ShareCount: 2},
	}
	sched := UniformSchedule([]float64{0.5, 0.3, 0.2}, total, 4)
	p, err := BuildProgram("testprog", seed, specs, sched)
	if err != nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	return p
}

func TestBuildProgramBasics(t *testing.T) {
	p := testProgram(t, 1, 100000)
	if p.NumBlocks() != 6+8+4 {
		t.Errorf("NumBlocks = %d, want 18", p.NumBlocks())
	}
	if len(p.Phases) != 3 {
		t.Fatalf("phases = %d", len(p.Phases))
	}
	// Phase 2 shares 2 blocks with phase 0.
	if len(p.Phases[2].Blocks) != 6 {
		t.Errorf("phase 2 has %d blocks, want 4 own + 2 shared", len(p.Phases[2].Blocks))
	}
	if p.Phases[2].Blocks[0] != p.Phases[0].Blocks[0] {
		t.Error("shared block pointers differ")
	}
	if p.TotalInstrs() == 0 {
		t.Error("zero total instructions")
	}
}

func TestPhaseWeightsSumToOne(t *testing.T) {
	p := testProgram(t, 2, 100000)
	w := p.PhaseWeights()
	var sum float64
	for _, v := range w {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("phase weights sum to %v", sum)
	}
	// Schedule weights were 0.5/0.3/0.2.
	if w[0] < 0.45 || w[0] > 0.55 {
		t.Errorf("phase 0 weight = %v, want ~0.5", w[0])
	}
}

func TestRunToEndExecutesNominalCount(t *testing.T) {
	p := testProgram(t, 3, 50000)
	e := NewExecutor(p)
	n := e.RunToEnd(Hooks{})
	if n < p.TotalInstrs() {
		t.Errorf("executed %d < nominal %d", n, p.TotalInstrs())
	}
	// Overshoot is bounded by one block per segment.
	maxOver := uint64(len(p.Schedule)) * 16
	if n > p.TotalInstrs()+maxOver {
		t.Errorf("executed %d overshoots nominal %d by more than %d", n, p.TotalInstrs(), maxOver)
	}
	if !e.Done() {
		t.Error("executor not done after RunToEnd")
	}
	if e.Run(100, Hooks{}) != 0 {
		t.Error("Run after completion should execute nothing")
	}
}

func TestRunLimitStopsAtBlockBoundary(t *testing.T) {
	p := testProgram(t, 4, 50000)
	e := NewExecutor(p)
	n := e.Run(1000, Hooks{})
	if n < 1000 {
		t.Errorf("Run(1000) executed only %d", n)
	}
	if n > 1000+16 {
		t.Errorf("Run(1000) overshot to %d", n)
	}
	if e.Instrs() != n {
		t.Errorf("Instrs() = %d, want %d", e.Instrs(), n)
	}
}

// TestSnapshotResumeEquivalence is the core pinball property: running N then
// M instructions with a snapshot/restore in between equals running N+M
// uninterrupted.
func TestSnapshotResumeEquivalence(t *testing.T) {
	p := testProgram(t, 5, 50000)

	// Uninterrupted reference run, recording the block trace.
	ref := NewExecutor(p)
	var refTrace []int
	ref.Run(20000, Hooks{Block: func(b *isa.Block, _ int) { refTrace = append(refTrace, b.ID) }})

	// Interrupted run: snapshot at ~7000, restore into a fresh executor.
	a := NewExecutor(p)
	var trace []int
	hook := Hooks{Block: func(b *isa.Block, _ int) { trace = append(trace, b.ID) }}
	ran := a.Run(7000, hook)
	snap := a.State()

	b := NewExecutor(p)
	if err := b.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	b.Run(20000-ran, hook)

	if len(trace) != len(refTrace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(trace), len(refTrace))
	}
	for i := range trace {
		if trace[i] != refTrace[i] {
			t.Fatalf("block traces diverge at %d: %d vs %d", i, trace[i], refTrace[i])
		}
	}
}

// TestModeIndependentStateEvolution verifies the property that makes cheap
// block-granular profiling sound: the state after running N instructions is
// identical whether or not a memory hook was attached.
func TestModeIndependentStateEvolution(t *testing.T) {
	p := testProgram(t, 6, 50000)

	fast := NewExecutor(p)
	fast.Run(12345, Hooks{})

	slow := NewExecutor(p)
	slow.Run(12345, Hooks{Mem: func(isa.MemRef) {}})

	if !fast.State().Equal(slow.State()) {
		t.Fatalf("state diverged between block mode and instruction mode:\nfast: %+v\nslow: %+v",
			fast.State(), slow.State())
	}
}

// TestAddressReplayDeterminism: replaying a region from its snapshot yields
// the identical address stream as the same region inside a longer run.
func TestAddressReplayDeterminism(t *testing.T) {
	p := testProgram(t, 7, 50000)

	// Whole run: record addresses in region [start, start+len).
	whole := NewExecutor(p)
	whole.Run(9000, Hooks{})
	snap := whole.State()
	start := whole.Instrs()
	var wholeAddrs []uint64
	whole.Run(4000, Hooks{Mem: func(r isa.MemRef) { wholeAddrs = append(wholeAddrs, r.Addr) }})
	regionLen := whole.Instrs() - start

	// Regional replay from snapshot.
	replay := NewExecutor(p)
	if err := replay.Restore(snap); err != nil {
		t.Fatal(err)
	}
	var replayAddrs []uint64
	replay.Run(regionLen, Hooks{Mem: func(r isa.MemRef) { replayAddrs = append(replayAddrs, r.Addr) }})

	if len(wholeAddrs) != len(replayAddrs) {
		t.Fatalf("address counts differ: %d vs %d", len(wholeAddrs), len(replayAddrs))
	}
	for i := range wholeAddrs {
		if wholeAddrs[i] != replayAddrs[i] {
			t.Fatalf("addresses diverge at %d: %#x vs %#x", i, wholeAddrs[i], replayAddrs[i])
		}
	}
}

func TestBranchEventsDeterministic(t *testing.T) {
	p := testProgram(t, 8, 20000)
	run := func() []bool {
		e := NewExecutor(p)
		var outcomes []bool
		e.Run(5000, Hooks{Branch: func(ev isa.BranchEvent) { outcomes = append(outcomes, ev.Taken) }})
		return outcomes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("branch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("branch outcomes diverge at %d", i)
		}
	}
	// Branches should not be all-taken or all-not-taken.
	taken := 0
	for _, v := range a {
		if v {
			taken++
		}
	}
	if taken == 0 || taken == len(a) {
		t.Errorf("degenerate branch behaviour: %d/%d taken", taken, len(a))
	}
}

func TestMemRefsMatchBlockMemOps(t *testing.T) {
	p := testProgram(t, 9, 30000)
	e := NewExecutor(p)
	var memInstrs uint64
	var refs uint64
	var rw uint64
	e.Run(10000, Hooks{
		Block: func(b *isa.Block, _ int) {
			memInstrs += uint64(len(b.MemInstrs))
			rw += b.Mix.MemRW
		},
		Mem: func(isa.MemRef) { refs++ },
	})
	// MemRW instructions issue two refs each.
	if refs != memInstrs+rw {
		t.Errorf("refs = %d, want memInstrs %d + rw %d", refs, memInstrs, rw)
	}
}

func TestAddressesWithinRegions(t *testing.T) {
	p := testProgram(t, 10, 30000)
	e := NewExecutor(p)
	e.Run(20000, Hooks{Mem: func(r isa.MemRef) {
		inWS := false
		for _, ph := range p.Phases {
			pat := ph.Pattern
			if r.Addr >= pat.Base && r.Addr < pat.Base+pat.WorkingSetBytes+16 {
				inWS = true
			}
			if pat.StreamBytes > 0 && r.Addr >= pat.StreamBase && r.Addr < pat.StreamBase+pat.StreamBytes+16 {
				inWS = true
			}
		}
		if !inWS {
			t.Fatalf("address %#x outside all declared regions", r.Addr)
		}
	}})
}

func TestStateCloneIsDeep(t *testing.T) {
	s := State{Instrs: 5, Phases: []PhaseState{{BlockExecs: 1}}}
	c := s.Clone()
	c.Phases[0].BlockExecs = 99
	if s.Phases[0].BlockExecs != 1 {
		t.Error("Clone shares the phase slice")
	}
}

func TestRestoreRejectsForeignState(t *testing.T) {
	p := testProgram(t, 11, 10000)
	e := NewExecutor(p)
	if err := e.Restore(State{Phases: make([]PhaseState, 99)}); err == nil {
		t.Error("Restore accepted a state with the wrong phase count")
	}
	if err := e.Restore(State{Seg: 1000, Phases: make([]PhaseState, len(p.Phases))}); err == nil {
		t.Error("Restore accepted an out-of-range segment")
	}
}

func TestFinalizeValidation(t *testing.T) {
	base := func() *Program {
		blk := &isa.Block{ID: 0, Instrs: []isa.StaticInstr{{Kind: isa.NoMem, Size: 4}, {Kind: isa.Branch, Size: 2}}}
		return &Program{
			Name:   "bad",
			Blocks: []*isa.Block{blk},
			Phases: []*Phase{{ID: 0, Blocks: []*isa.Block{blk},
				Pattern: MemPattern{Base: 0, WorkingSetBytes: 1024, Stride: 8}}},
			Schedule: []Segment{{Phase: 0, Instrs: 100}},
		}
	}
	if err := base().Finalize(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	p := base()
	p.Phases = nil
	if err := p.Finalize(); err == nil {
		t.Error("accepted program with no phases")
	}

	p = base()
	p.Schedule = nil
	if err := p.Finalize(); err == nil {
		t.Error("accepted program with no schedule")
	}

	p = base()
	p.Schedule = []Segment{{Phase: 5, Instrs: 10}}
	if err := p.Finalize(); err == nil {
		t.Error("accepted schedule referencing unknown phase")
	}

	p = base()
	p.Schedule = []Segment{{Phase: 0, Instrs: 0}}
	if err := p.Finalize(); err == nil {
		t.Error("accepted empty segment")
	}

	p = base()
	p.Phases[0].Pattern.Stride = 0
	if err := p.Finalize(); err == nil {
		t.Error("accepted zero stride")
	}
}

func TestMemPatternValidate(t *testing.T) {
	good := MemPattern{Base: 0, WorkingSetBytes: 1024, Stride: 8,
		SeqPermille: 500, StreamPermille: 100, StreamBase: 1 << 30, StreamBytes: 1 << 20}
	if err := good.Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	bad := good
	bad.SeqPermille = 950
	bad.StreamPermille = 100
	if err := bad.Validate(); err == nil {
		t.Error("accepted probabilities > 1000 permille")
	}
	bad = good
	bad.WorkingSetBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero working set")
	}
	bad = good
	bad.StreamBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted streaming without region")
	}
}

// Property: snapshot/resume equivalence holds at arbitrary cut points.
func TestSnapshotResumeProperty(t *testing.T) {
	p := testProgram(t, 12, 40000)
	f := func(cutRaw uint16) bool {
		cut := uint64(cutRaw)%30000 + 10
		ref := NewExecutor(p)
		ref.Run(cut, Hooks{})
		ref.Run(500, Hooks{})
		refState := ref.State()

		x := NewExecutor(p)
		x.Run(cut, Hooks{})
		snap := x.State()
		y := NewExecutor(p)
		if err := y.Restore(snap); err != nil {
			return false
		}
		y.Run(500, Hooks{})
		return y.State().Equal(refState)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestUniformScheduleWeights(t *testing.T) {
	sched := UniformSchedule([]float64{1, 1, 2}, 40000, 2)
	totals := map[int]uint64{}
	for _, s := range sched {
		totals[s.Phase] += s.Instrs
	}
	if totals[2] != 2*totals[0] {
		t.Errorf("phase 2 should have twice phase 0's instructions: %v", totals)
	}
}

func BenchmarkExecutorBlockMode(b *testing.B) {
	p := testProgram(b, 13, 1<<62)
	e := NewExecutor(p)
	b.ResetTimer()
	e.Run(uint64(b.N), Hooks{})
	b.ReportMetric(float64(b.N), "instrs")
}

func BenchmarkExecutorMemMode(b *testing.B) {
	p := testProgram(b, 14, 1<<62)
	e := NewExecutor(p)
	var sink uint64
	b.ResetTimer()
	e.Run(uint64(b.N), Hooks{Mem: func(r isa.MemRef) { sink += r.Addr }})
	_ = sink
}

package program

import (
	"fmt"

	"specsampling/internal/isa"
)

// PhaseState is the dynamic state of one phase: how many blocks it has
// executed and how many memory accesses it has issued, since the start of
// the program. Both are inputs to the pure hash functions that decide
// control flow and addresses, so capturing them captures the phase's entire
// future behaviour.
type PhaseState struct {
	BlockExecs uint64
	Accesses   uint64
}

// State is a complete, restorable snapshot of an execution. It is the
// payload of a pinball: resuming from a State reproduces the original
// execution exactly.
type State struct {
	// Instrs is the global dynamic instruction count.
	Instrs uint64
	// Seg is the index of the current schedule segment.
	Seg int
	// SegDone is the instruction count completed inside the current segment.
	SegDone uint64
	// BlockPos is the position in the current phase's block cycle.
	BlockPos int
	// Phases holds per-phase counters, indexed by phase ID.
	Phases []PhaseState
}

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	out := s
	out.Phases = append([]PhaseState(nil), s.Phases...)
	return out
}

// Equal reports whether two states are identical.
func (s State) Equal(o State) bool {
	if s.Instrs != o.Instrs || s.Seg != o.Seg || s.SegDone != o.SegDone ||
		s.BlockPos != o.BlockPos || len(s.Phases) != len(o.Phases) {
		return false
	}
	for i := range s.Phases {
		if s.Phases[i] != o.Phases[i] {
			return false
		}
	}
	return true
}

// Hooks are the executor's observation points — the analogue of Pin's
// instrumentation callbacks. Any hook may be nil; the executor materialises
// only the events that attached hooks need. Crucially, the execution's state
// evolution is identical whichever hooks are attached.
type Hooks struct {
	// Block fires once per dynamic basic-block execution.
	Block func(b *isa.Block, phase int)
	// Mem fires once per dynamic memory access, in program order within the
	// block. Attaching it switches the executor to per-instruction mode.
	Mem func(ref isa.MemRef)
	// Branch fires once per block terminator with the resolved direction.
	Branch func(ev isa.BranchEvent)
}

// Executor runs a Program deterministically. It is not safe for concurrent
// use; run independent Executors (e.g. one per regional pinball) for
// parallelism.
type Executor struct {
	prog *Program
	st   State
}

// NewExecutor returns an executor positioned at the start of the program.
// The program must have been finalized.
func NewExecutor(p *Program) *Executor {
	return &Executor{
		prog: p,
		st: State{
			Phases: make([]PhaseState, len(p.Phases)),
		},
	}
}

// Program returns the program being executed.
func (e *Executor) Program() *Program { return e.prog }

// State returns a deep copy of the current execution state.
func (e *Executor) State() State { return e.st.Clone() }

// Restore rewinds or fast-forwards the executor to a previously captured
// state. The state must come from the same program. The snapshot is copied,
// never aliased, and the copy reuses the executor's existing phase buffer —
// Restore allocates nothing once the executor exists, which is what lets a
// replay worker restore thousands of pinballs through one executor without
// garbage (pinned by TestReplayerReplayAllocs).
func (e *Executor) Restore(s State) error {
	if len(s.Phases) != len(e.prog.Phases) {
		return fmt.Errorf("program: state has %d phases, program has %d", len(s.Phases), len(e.prog.Phases))
	}
	if s.Seg > len(e.prog.Schedule) {
		return fmt.Errorf("program: state segment %d out of range", s.Seg)
	}
	phases := e.st.Phases
	if cap(phases) < len(s.Phases) {
		phases = make([]PhaseState, len(s.Phases))
	} else {
		phases = phases[:len(s.Phases)]
	}
	copy(phases, s.Phases)
	e.st = s
	e.st.Phases = phases
	return nil
}

// Done reports whether the program has run to completion.
func (e *Executor) Done() bool { return e.st.Seg >= len(e.prog.Schedule) }

// Instrs returns the global dynamic instruction count so far.
func (e *Executor) Instrs() uint64 { return e.st.Instrs }

// Run executes until at least limit further instructions have completed or
// the program ends, whichever is first, and returns the number executed.
// Execution always stops on a basic-block boundary, so the return value may
// exceed limit by at most one block. Replaying from the same State with the
// same limit always stops at the same boundary.
func (e *Executor) Run(limit uint64, h Hooks) uint64 {
	var executed uint64
	st := &e.st
	sched := e.prog.Schedule
	for executed < limit && st.Seg < len(sched) {
		seg := &sched[st.Seg]
		ph := e.prog.Phases[seg.Phase]
		b := ph.Blocks[st.BlockPos]
		ps := &st.Phases[seg.Phase]

		if h.Mem != nil {
			e.runBlockInstrs(ph, ps, b, h.Mem)
		} else {
			ps.Accesses += uint64(len(b.MemInstrs))
		}
		ps.BlockExecs++

		n := uint64(b.Len())
		executed += n
		st.Instrs += n
		st.SegDone += n

		if h.Block != nil {
			h.Block(b, seg.Phase)
		}

		next, taken := successor(ph, st.BlockPos, ps.BlockExecs)
		if h.Branch != nil {
			h.Branch(isa.BranchEvent{PC: b.PC + uint64(b.Len()-1)*4, Taken: taken})
		}
		st.BlockPos = next

		if st.SegDone >= seg.Instrs {
			st.Seg++
			st.SegDone = 0
			st.BlockPos = 0
		}
	}
	return executed
}

// RunToEnd executes the remainder of the program and returns the number of
// instructions executed.
func (e *Executor) RunToEnd(h Hooks) uint64 {
	var executed uint64
	for !e.Done() {
		// Chunked so limit arithmetic cannot overflow on huge programs.
		executed += e.Run(1<<40, h)
	}
	return executed
}

// runBlockInstrs is the per-instruction path: it walks the block's memory
// instructions and materialises an address for every memory operand. The
// address function is a pure function of (phase seed, access index), so the
// executor state evolution matches the block-granular fast path exactly.
func (e *Executor) runBlockInstrs(ph *Phase, ps *PhaseState, b *isa.Block, memHook func(isa.MemRef)) {
	pat := &ph.Pattern
	for _, in := range b.MemInstrs {
		a := address(ph.seedMem, pat, ps.Accesses)
		ps.Accesses++
		switch in.Kind {
		case isa.MemR:
			memHook(isa.MemRef{Addr: a, Size: in.Size, Write: false})
		case isa.MemW:
			memHook(isa.MemRef{Addr: a, Size: in.Size, Write: true})
		case isa.MemRW:
			// A memory-to-memory instruction issues a read and a write but
			// counts as a single access-generating instruction; the write
			// lands one line-offset away so it exercises a distinct word.
			memHook(isa.MemRef{Addr: a, Size: in.Size, Write: false})
			memHook(isa.MemRef{Addr: a + 8, Size: in.Size, Write: true})
		}
	}
}

// address computes the i-th memory address of a phase. The component
// (sequential / streaming / random) is chosen by hashing the access index,
// then the address is derived from the index within the component's region,
// giving each component its characteristic locality.
func address(seed uint64, pat *MemPattern, i uint64) uint64 {
	h := mix(seed ^ i)
	sel := uint32(h % 1000)
	switch {
	case sel < pat.SeqPermille:
		// Strided walk: position advances with the access index so runs of
		// sequential accesses touch consecutive (strided) addresses.
		pos := (i * pat.Stride) % pat.WorkingSetBytes
		return pat.Base + pos
	case sel < pat.SeqPermille+pat.StreamPermille:
		// Streaming: line-granular walk through a region much larger than
		// the cache hierarchy. The position is scaled by the component's
		// own rate so consecutive stream draws touch consecutive lines
		// (one line per stream access), as a real stencil sweep does.
		pos := (i * uint64(pat.StreamPermille) / 1000 * 64) % pat.StreamBytes
		return pat.StreamBase + pos
	default:
		// Random within the working set, 8-byte aligned. Real programs'
		// "random" references are Zipf-like, not uniform: most touch a hot
		// subset. Thirteen of every sixteen random accesses hit a 1/64
		// slice of the working set, the rest range over all of it — keeping
		// L1 hit rates realistic while preserving capacity-dependent reuse.
		r := mix(h)
		if r&0xf < 13 {
			hot := pat.WorkingSetBytes / 64
			if hot < 512 {
				hot = pat.WorkingSetBytes
			}
			return pat.Base + (r>>8)%hot&^7
		}
		return pat.Base + (r>>8)%pat.WorkingSetBytes&^7
	}
}

// successor decides the next block in the phase's cycle and whether the
// terminating branch was taken. The common case is the fall-through cycle
// (next block, not taken) with a wrap-around loop branch (taken); with
// probability JumpPermille the control transfers to a hash-chosen block
// (taken). Everything is a pure function of the phase's block-execution
// counter.
func successor(ph *Phase, pos int, execs uint64) (next int, taken bool) {
	n := len(ph.Blocks)
	if n == 1 {
		return 0, true
	}
	h := mix(ph.seedCtl ^ execs)
	if uint32(h%1000) < ph.JumpPermille {
		j := int((h >> 32) % uint64(n))
		return j, true
	}
	if pos+1 == n {
		return 0, true // loop back-edge
	}
	return pos + 1, false
}

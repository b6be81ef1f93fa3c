// Package pin is the reproduction's dynamic instrumentation framework — the
// analogue of Intel Pin in the original study. Tools register for the
// observation granularities they need (basic blocks, memory accesses,
// branches) and an Engine drives a program.Executor, fanning events out to
// the attached tools.
//
// As with real Pin, finer granularity costs more: the engine only
// materialises memory addresses when at least one memory tool is attached,
// so block-level tools (instruction counting, instruction mix, BBV
// profiling) run at block speed. Attaching tools never perturbs the
// program's execution — the executor's state evolution is
// instrumentation-independent, which is what makes checkpoints taken under
// one tool set replayable under another.
package pin

import (
	"fmt"

	"specsampling/internal/isa"
	"specsampling/internal/obs"
	"specsampling/internal/program"
)

// instrCounter totals instructions executed under instrumentation across
// every engine; one atomic add per Run call, never per instruction.
var instrCounter = obs.GetCounter("sim.instrs")

// Tool is the base interface all Pintools implement. A tool additionally
// implements one or more of BlockTool, MemTool and BranchTool to receive
// events.
type Tool interface {
	// Name identifies the tool in reports and errors.
	Name() string
}

// BlockTool receives one event per dynamic basic-block execution, tagged
// with the phase the block ran in.
type BlockTool interface {
	Tool
	OnBlock(b *isa.Block, phase int)
}

// MemTool receives one event per dynamic memory access in program order.
// Attaching a MemTool switches the engine to per-instruction execution.
type MemTool interface {
	Tool
	OnMem(ref isa.MemRef)
}

// BranchTool receives one event per block terminator with its resolved
// direction.
type BranchTool interface {
	Tool
	OnBranch(ev isa.BranchEvent)
}

// FetchTool receives one event per dynamic basic-block execution carrying
// the block's instruction-fetch footprint (start PC and byte length); cache
// tools use it to model L1I traffic.
type FetchTool interface {
	Tool
	OnFetch(pc uint64, bytes uint64)
}

// Engine drives a program under instrumentation.
type Engine struct {
	exec  *program.Executor
	tools []Tool

	blockTools  []BlockTool
	memTools    []MemTool
	branchTools []BranchTool
	fetchTools  []FetchTool

	// Cached hook closures, built at most once per engine. Each closure
	// reads the engine's tool slices at call time, so it stays valid across
	// Reset/Attach cycles — a reused replay engine allocates no closures
	// after its first run.
	blockHook  func(b *isa.Block, phase int)
	memHook    func(ref isa.MemRef)
	branchHook func(ev isa.BranchEvent)
}

// NewEngine wraps a finalized program in a fresh engine.
func NewEngine(p *program.Program) *Engine {
	return &Engine{exec: program.NewExecutor(p)}
}

// NewEngineAt wraps an executor that may already be positioned mid-program
// (e.g. restored from a pinball).
func NewEngineAt(exec *program.Executor) *Engine {
	return &Engine{exec: exec}
}

// Executor exposes the underlying executor (for checkpointing).
func (e *Engine) Executor() *program.Executor { return e.exec }

// Attach registers a tool. It returns an error if the tool implements none
// of the event interfaces — almost certainly a bug in the tool.
func (e *Engine) Attach(t Tool) error {
	any := false
	if bt, ok := t.(BlockTool); ok {
		e.blockTools = append(e.blockTools, bt)
		any = true
	}
	if mt, ok := t.(MemTool); ok {
		e.memTools = append(e.memTools, mt)
		any = true
	}
	if brt, ok := t.(BranchTool); ok {
		e.branchTools = append(e.branchTools, brt)
		any = true
	}
	if ft, ok := t.(FetchTool); ok {
		e.fetchTools = append(e.fetchTools, ft)
		any = true
	}
	if !any {
		return fmt.Errorf("pin: tool %q implements no event interface", t.Name())
	}
	e.tools = append(e.tools, t)
	return nil
}

// Tools returns the attached tools in attachment order.
func (e *Engine) Tools() []Tool { return e.tools }

// Reset detaches every tool while keeping the engine (and its underlying
// executor) alive. The tool slices keep their backing arrays and the hook
// closures stay cached, so a Reset/Attach/Run cycle on a long-lived engine
// — the pattern of a replay worker driving one pinball after another —
// performs no per-replay allocations.
func (e *Engine) Reset() {
	e.tools = e.tools[:0]
	e.blockTools = e.blockTools[:0]
	e.memTools = e.memTools[:0]
	e.branchTools = e.branchTools[:0]
	e.fetchTools = e.fetchTools[:0]
}

// hooks assembles the executor hook set for the current tool population.
// Hooks are present only for event kinds with at least one attached tool —
// in particular Mem stays nil without memory tools, keeping the executor on
// the block-granular fast path. The closures themselves are built lazily
// once and dispatch over the live tool slices, so hooks() allocates nothing
// on engines that have run before.
func (e *Engine) hooks() program.Hooks {
	var h program.Hooks
	if len(e.blockTools) > 0 || len(e.fetchTools) > 0 {
		if e.blockHook == nil {
			e.blockHook = func(b *isa.Block, phase int) {
				for _, t := range e.blockTools {
					t.OnBlock(b, phase)
				}
				for _, t := range e.fetchTools {
					t.OnFetch(b.PC, b.FetchBytes)
				}
			}
		}
		h.Block = e.blockHook
	}
	if len(e.memTools) > 0 {
		if e.memHook == nil {
			e.memHook = func(ref isa.MemRef) {
				for _, t := range e.memTools {
					t.OnMem(ref)
				}
			}
		}
		h.Mem = e.memHook
	}
	if len(e.branchTools) > 0 {
		if e.branchHook == nil {
			e.branchHook = func(ev isa.BranchEvent) {
				for _, t := range e.branchTools {
					t.OnBranch(ev)
				}
			}
		}
		h.Branch = e.branchHook
	}
	return h
}

// Run executes at least limit instructions (stopping on a block boundary)
// and returns the count executed.
func (e *Engine) Run(limit uint64) uint64 {
	n := e.exec.Run(limit, e.hooks())
	instrCounter.Add(int64(n))
	return n
}

// RunToEnd executes the rest of the program.
func (e *Engine) RunToEnd() uint64 {
	n := e.exec.RunToEnd(e.hooks())
	instrCounter.Add(int64(n))
	return n
}

// Done reports whether the program has completed.
func (e *Engine) Done() bool { return e.exec.Done() }

// Package exec executes test programs against a synthetic kernel and
// collects KCOV-style execution traces.
//
// The executor reproduces the determinism engineering of §3.1: by default
// every program runs from a pristine kernel-state snapshot, system calls
// execute strictly sequentially, and no background activity perturbs the
// trace. An optional NoiseModel reintroduces the nondeterminism of a
// conventional fuzzing setup (shared VM state, background interrupts) for
// ablation experiments.
package exec

import (
	"fmt"

	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
)

// maxSteps bounds a single call's block walk as a safety net; handler CFGs
// are DAGs, so hitting it indicates a kernel-build bug.
const maxSteps = 100000

// Result is the outcome of executing one program.
type Result struct {
	// CallTraces holds, per executed call, the ordered basic-block trace.
	// When the program crashes, the crashing call's trace is the last entry.
	CallTraces [][]kernel.BlockID
	// Succeeded reports, per executed call, whether it exited through the
	// success return block.
	Succeeded []bool
	// Crash is non-nil if the kernel crashed; CrashCall is the call index.
	Crash     *kernel.CrashSpec
	CrashCall int
	// Cost is the simulated execution cost (total blocks executed); the
	// experiment harness uses it as the time axis.
	Cost int
}

// Blocks returns the set of all blocks covered by the result.
func (r *Result) Blocks() map[kernel.BlockID]struct{} {
	set := make(map[kernel.BlockID]struct{})
	for _, tr := range r.CallTraces {
		for _, b := range tr {
			set[b] = struct{}{}
		}
	}
	return set
}

// Machine is one simulated fuzzing VM's execution engine: an Executor plus
// per-machine counters. The parallel campaign engine gives each VM worker
// its own Machine so execution state (boot snapshot, flaky-crash RNG,
// noise) never crosses VM boundaries, and the counters feed the per-VM
// stats line.
type Machine struct {
	*Executor
	// ID is the VM index within its fleet.
	ID int
	// Execs counts programs run on this machine.
	Execs int64
	// BlocksRun is the total simulated cost (blocks executed) consumed.
	BlocksRun int64
}

// NewMachine creates a per-VM execution machine over a fresh executor.
func NewMachine(k *kernel.Kernel, id int) *Machine {
	return &Machine{Executor: New(k), ID: id}
}

// Run executes the program on this machine, updating its counters.
func (m *Machine) Run(p *prog.Prog) (*Result, error) {
	res, err := m.Executor.Run(p)
	if err == nil {
		m.Execs++
		m.BlocksRun += int64(res.Cost)
	}
	return res, err
}

// NoiseModel reintroduces the nondeterminism the paper's data-collection
// pipeline eliminates: spurious background coverage (network interrupts,
// RCU callbacks) and shared state across executions.
type NoiseModel struct {
	// Rand drives the noise; required.
	Rand *rng.Rand
	// InterruptProb is the chance, per call, of interleaving a background
	// handler's trace into the coverage.
	InterruptProb float64
	// SharedState, when true, carries kernel state across Run calls instead
	// of restoring the boot snapshot (the "no VM snapshot" configuration).
	SharedState bool
}

// Executor runs programs on one kernel instance.
type Executor struct {
	K *kernel.Kernel

	boot    *kernel.State
	state   *kernel.State // live state when noise.SharedState carries over
	noise   *NoiseModel
	flakyR  *rng.Rand
	baddies []kernel.BlockID // entry blocks usable as background noise

	// Per-run scratch, reused across calls and runs (an executor runs on
	// one goroutine): the fresh kernel state, the resource value of each
	// call, and the current call's slot views. None of it escapes a Run.
	fresh   *kernel.State
	results []uint64
	views   []kernel.SlotView
}

// flakySeed seeds every fresh executor's flaky-crash RNG.
const flakySeed = 0x5eed

// New creates an executor with a pristine boot snapshot and deterministic
// execution (no noise).
func New(k *kernel.Kernel) *Executor {
	return &Executor{K: k, boot: kernel.NewState(), flakyR: rng.New(flakySeed)}
}

// InitialFlakyState is the flaky-crash RNG state of a freshly created
// executor, for building the checkpoint state of a VM that has not executed
// anything yet.
func InitialFlakyState() [4]uint64 {
	return rng.New(flakySeed).State()
}

// FlakyState exports the flaky-crash RNG's current state. Flaky crash
// blocks consume this stream once per hit, so an executor's future results
// depend on how much of the stream past runs consumed; checkpointing a
// fuzzing VM therefore must capture it alongside the mutation RNG.
func (e *Executor) FlakyState() [4]uint64 {
	return e.flakyR.State()
}

// RestoreFlaky resumes the flaky-crash RNG from a FlakyState export, so a
// restored VM's flaky-crash outcomes continue exactly where the
// checkpointed VM left off.
func (e *Executor) RestoreFlaky(s [4]uint64) {
	e.flakyR = rng.FromState(s)
}

// SeedFlaky rewinds the flaky-crash RNG to a fresh stream derived from
// seed. Flaky crash blocks consume this stream once per hit, so an
// executor's results depend on its whole run history; work-sharded callers
// (dataset.Collect) reseed per work unit to make each unit's outcome a pure
// function of (kernel, program, seed) — independent of which worker ran it
// or what ran before.
func (e *Executor) SeedFlaky(seed uint64) {
	e.flakyR = rng.New(seed)
}

// WithNoise enables the noise model; it returns the executor.
func (e *Executor) WithNoise(n *NoiseModel) *Executor {
	e.noise = n
	if n != nil {
		for _, h := range e.K.Handlers {
			e.baddies = append(e.baddies, h.Entry)
		}
	}
	return e
}

// Run executes the program from a fresh snapshot (or the carried-over state
// under a SharedState noise model) and returns its trace.
func (e *Executor) Run(p *prog.Prog) (*Result, error) {
	var st *kernel.State
	switch {
	case e.noise != nil && e.noise.SharedState:
		if e.state == nil {
			e.state = e.boot.Snapshot()
		}
		st = e.state
	case e.fresh == nil:
		e.fresh = e.boot.Snapshot()
		st = e.fresh
	default:
		e.fresh.Restore(e.boot)
		st = e.fresh
	}
	res := &Result{}
	results := e.results[:0] // runtime value of each call's resource
	for range p.Calls {
		results = append(results, ^uint64(0))
	}
	e.results = results
	for ci, call := range p.Calls {
		h := e.K.Handler(call.Meta.Name)
		if h == nil {
			return nil, fmt.Errorf("exec: no handler for syscall %q", call.Meta.Name)
		}
		e.views = slotViews(e.views[:0], call, results)
		tr, success, crash, err := e.runCall(h, e.views, st)
		if err != nil {
			return nil, err
		}
		if e.noise != nil && e.noise.Rand.Chance(e.noise.InterruptProb) {
			tr = append(tr, e.backgroundTrace(st)...)
		}
		res.CallTraces = append(res.CallTraces, tr)
		res.Succeeded = append(res.Succeeded, success)
		res.Cost += len(tr)
		if crash != nil {
			res.Crash = crash
			res.CrashCall = ci
			break
		}
		if call.Meta.Ret != "" && success {
			results[ci] = st.AllocHandle(call.Meta.Ret)
		}
	}
	return res, nil
}

// runCall walks one handler CFG.
func (e *Executor) runCall(h *kernel.Handler, views []kernel.SlotView, st *kernel.State) ([]kernel.BlockID, bool, *kernel.CrashSpec, error) {
	var tr []kernel.BlockID
	id := h.Entry
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return nil, false, nil, fmt.Errorf("exec: handler %s exceeded %d steps (cycle?)", h.Call.Name, maxSteps)
		}
		b := e.K.Block(id)
		tr = append(tr, id)
		if eff := b.Effect; eff != nil {
			applyEffect(eff, views, st)
		}
		switch b.Kind {
		case kernel.BlockBody:
			id = b.Next
		case kernel.BlockBranch:
			if b.Pred.Eval(views, st) {
				id = b.Taken
			} else {
				id = b.NotTaken
			}
		case kernel.BlockReturn:
			return tr, id == h.Exit, nil, nil
		case kernel.BlockCrash:
			if b.Crash.Flaky && !e.flakyR.Chance(0.3) {
				// The race window did not hit this time; the call survives.
				return tr, false, nil, nil
			}
			return tr, false, b.Crash, nil
		default:
			return nil, false, nil, fmt.Errorf("exec: unknown block kind %d", b.Kind)
		}
	}
}

func applyEffect(eff *kernel.Effect, views []kernel.SlotView, st *kernel.State) {
	switch eff.Kind {
	case kernel.EffectIncCounter:
		st.Counters[eff.Key]++
	case kernel.EffectSetCounter:
		st.Counters[eff.Key] = eff.Value
	case kernel.EffectCloseResource:
		if eff.Slot < len(views) && views[eff.Slot].Present {
			st.CloseHandle(views[eff.Slot].Val)
		}
	}
}

// backgroundTrace simulates an interrupting background handler running with
// default (zero) argument views, as network or timer activity would.
func (e *Executor) backgroundTrace(st *kernel.State) []kernel.BlockID {
	entry := e.baddies[e.noise.Rand.Intn(len(e.baddies))]
	var tr []kernel.BlockID
	id := entry
	for steps := 0; steps < 64; steps++ {
		b := e.K.Block(id)
		tr = append(tr, id)
		switch b.Kind {
		case kernel.BlockBody:
			id = b.Next
		case kernel.BlockBranch:
			if b.Pred.Eval(nil, st) {
				id = b.Taken
			} else {
				id = b.NotTaken
			}
		default:
			return tr
		}
	}
	return tr
}

// slotViews appends to views the call's flattened argument slots resolved
// to the executor's scalar view, resolving resource references through
// results.
func slotViews(views []kernel.SlotView, call *prog.Call, results []uint64) []kernel.SlotView {
	for _, s := range call.Meta.Slots() {
		a := call.ArgAtPath(s.Path)
		if a == nil {
			views = append(views, kernel.SlotView{}) // behind a null pointer: absent
			continue
		}
		v := kernel.SlotView{Present: true}
		switch arg := a.(type) {
		case *prog.ConstArg:
			v.Val = arg.Val
		case *prog.StringArg:
			v.Len = len(arg.Val)
		case *prog.DataArg:
			v.Len = len(arg.Data)
		case *prog.PointerArg:
			if !arg.Null {
				v.Val = 1
			}
		case *prog.ResultArg:
			v.IsResource = true
			if arg.Ref >= 0 && arg.Ref < len(results) {
				v.Val = results[arg.Ref]
			} else {
				v.Val = arg.Val
			}
		case *prog.GroupArg:
			// Structs are not slots; flattening never yields them.
		}
		views = append(views, v)
	}
	return views
}

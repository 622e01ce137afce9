// Package mutation implements the test-mutation engine of the paper's
// Figure 1: the three policy decisions selector (what kind of mutation),
// localizer (where to apply it), and instantiator (how to perform it), plus
// the per-type argument mutators and Syzkaller-style heuristics.
//
// The Localizer is pluggable: the baseline fuzzer uses RandomLocalizer
// (Syzkaller's semi-random argument choice), while Snowplow substitutes the
// learned PMM localizer. Everything else — type selection and argument
// instantiation — is shared between the two systems, exactly as in the
// paper's deployment.
package mutation

import (
	"fmt"

	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
)

// Type identifies a mutation type (the selector's output domain).
type Type int

// The mutation types.
const (
	ArgMutation   Type = iota // mutate argument values in place
	CallInsertion             // insert a new call
	CallRemoval               // remove a call
)

// String returns the paper's name for the mutation type.
func (t Type) String() string {
	switch t {
	case ArgMutation:
		return "ARGUMENT_MUTATION"
	case CallInsertion:
		return "SYSCALL_INSERTION"
	case CallRemoval:
		return "SYSCALL_REMOVAL"
	default:
		return fmt.Sprintf("MUTATION(%d)", int(t))
	}
}

// Localizer chooses which argument slots of a program to mutate when the
// selector picks ArgMutation. Implementations may ignore the random source
// (a learned localizer) or use it heavily (the baseline).
type Localizer interface {
	Localize(r *rng.Rand, p *prog.Prog) []prog.GlobalSlot
}

// RandomLocalizer picks K distinct slots uniformly at random — Syzkaller's
// behaviour, and the Rand.K baseline of Table 1.
type RandomLocalizer struct {
	// K is the number of slots to select (default 1).
	K int
}

// Localize implements Localizer.
func (l RandomLocalizer) Localize(r *rng.Rand, p *prog.Prog) []prog.GlobalSlot {
	all := p.AllSlots()
	if len(all) == 0 {
		return nil
	}
	k := l.K
	if k <= 0 {
		k = 1
	}
	if k >= len(all) {
		return all
	}
	perm := r.Perm(len(all))
	out := make([]prog.GlobalSlot, k)
	for i := 0; i < k; i++ {
		out[i] = all[perm[i]]
	}
	return out
}

// Record describes one performed mutation: its type, the slots touched (for
// argument mutations), and the resulting program.
type Record struct {
	Type  Type
	Slots []prog.GlobalSlot
	Prog  *prog.Prog
}

// Mutator performs program mutations.
type Mutator struct {
	Target *spec.Registry
	Gen    *prog.Generator
	// Localizer chooses argument slots for ArgMutation; defaults to
	// RandomLocalizer{K: 1}.
	Localizer Localizer
	// TypeWeights order: ArgMutation, CallInsertion, CallRemoval. Defaults
	// follow Syzkaller's bias toward argument mutation.
	TypeWeights [3]float64
}

// NewMutator returns a Mutator with Syzkaller-like defaults.
func NewMutator(target *spec.Registry) *Mutator {
	return &Mutator{
		Target:      target,
		Gen:         prog.NewGenerator(target),
		Localizer:   RandomLocalizer{K: 1},
		TypeWeights: [3]float64{0.70, 0.20, 0.10},
	}
}

// Mutate applies one randomly selected mutation to a copy of p and reports
// what was done. The input program is never modified.
func (m *Mutator) Mutate(r *rng.Rand, p *prog.Prog) Record {
	return m.MutateType(r, p, m.SelectType(r, p))
}

// MutateType applies one mutation of the given type. Callers that override
// localization (Snowplow) select the type themselves and keep every other
// decision identical to the baseline.
func (m *Mutator) MutateType(r *rng.Rand, p *prog.Prog, t Type) Record {
	switch t {
	case ArgMutation:
		slots := m.localizer().Localize(r, p)
		if len(slots) == 0 {
			return m.insertCall(r, p)
		}
		return m.MutateArgs(r, p, slots)
	case CallInsertion:
		return m.insertCall(r, p)
	case CallRemoval:
		return m.removeCall(r, p)
	default:
		panic("mutation: unknown type")
	}
}

func (m *Mutator) localizer() Localizer {
	if m.Localizer != nil {
		return m.Localizer
	}
	return RandomLocalizer{K: 1}
}

// SelectType is the selector of Figure 1: a biased coin over mutation
// types, ignoring the target (as Syzkaller's default does).
func (m *Mutator) SelectType(r *rng.Rand, p *prog.Prog) Type {
	if len(p.Calls) == 0 {
		return CallInsertion
	}
	if len(p.Calls) <= 1 {
		// Removal of the only call produces an empty test; skew away.
		return Type(r.Choose([]float64{m.TypeWeights[0], m.TypeWeights[1], 0.001}))
	}
	return Type(r.Choose(m.TypeWeights[:]))
}

// MutateArgs clones p and re-instantiates the given slots (the instantiator
// of Figure 1). Slots behind null pointers are materialized first, because
// choosing them implies making the pointer non-null. Slots outside p are
// skipped: they come from predictions, which may be corrupt.
func (m *Mutator) MutateArgs(r *rng.Rand, p *prog.Prog, slots []prog.GlobalSlot) Record {
	q := p.Clone()
	for _, gs := range slots {
		if gs.Call < 0 || gs.Call >= len(q.Calls) {
			continue
		}
		call := q.Calls[gs.Call]
		specSlots := call.Meta.Slots()
		if gs.Slot < 0 || gs.Slot >= len(specSlots) {
			continue
		}
		slot := specSlots[gs.Slot]
		materializePath(call, slot.Path)
		arg := call.ArgAtPath(slot.Path)
		if arg == nil {
			continue
		}
		m.instantiate(r, q, gs.Call, arg)
		// Most of the time keep length fields consistent, occasionally let
		// a corrupted length stand (kernels must validate them).
		if slot.Type.Kind != spec.KindLen || r.Chance(0.5) {
			call.FixupLens()
		}
	}
	return Record{Type: ArgMutation, Slots: slots, Prog: q}
}

// materializePath replaces null pointers along the path with default
// pointees so the slot's argument exists.
func materializePath(call *prog.Call, path []int) {
	if len(path) == 0 || path[0] >= len(call.Args) {
		return
	}
	a := call.Args[path[0]]
	for _, idx := range path[1:] {
		switch v := a.(type) {
		case *prog.PointerArg:
			if v.Null || v.Inner == nil {
				v.Null = false
				v.Inner = prog.DefaultArg(v.T.Elem)
			}
			a = v.Inner
		case *prog.GroupArg:
			if idx >= len(v.Inner) {
				return
			}
			a = v.Inner[idx]
		default:
			return
		}
	}
}

// instantiate mutates one argument's value according to its type.
func (m *Mutator) instantiate(r *rng.Rand, p *prog.Prog, callIdx int, a prog.Arg) {
	switch v := a.(type) {
	case *prog.ConstArg:
		v.Val = m.mutateScalar(r, v.Type(), v.Val)
	case *prog.StringArg:
		v.Val = fmt.Sprintf("./file%d", r.Intn(8))
	case *prog.DataArg:
		m.mutateData(r, v)
	case *prog.PointerArg:
		m.mutatePointer(r, v)
	case *prog.ResultArg:
		m.mutateResource(r, p, callIdx, v)
	case *prog.GroupArg:
		// Structs are not slots; nothing to do.
	}
}

// mutateScalar produces a new scalar value, retrying a few times to avoid
// no-op mutations (re-executing an identical program wastes budget).
func (m *Mutator) mutateScalar(r *rng.Rand, t *spec.Type, old uint64) uint64 {
	for try := 0; try < 4; try++ {
		if v := m.scalarOnce(r, t, old); v != old {
			return v
		}
	}
	return m.scalarOnce(r, t, old)
}

func (m *Mutator) scalarOnce(r *rng.Rand, t *spec.Type, old uint64) uint64 {
	switch t.Kind {
	case spec.KindFlags:
		switch r.Intn(3) {
		case 0: // toggle one flag
			return old ^ t.Values[r.Intn(len(t.Values))]
		case 1: // fresh subset
			var v uint64
			n := 1 + r.Intn(3)
			for i := 0; i < n; i++ {
				v |= t.Values[r.Intn(len(t.Values))]
			}
			return v
		default: // add one flag
			return old | t.Values[r.Intn(len(t.Values))]
		}
	case spec.KindEnum:
		return t.Values[r.Intn(len(t.Values))]
	case spec.KindInt:
		span := t.Max - t.Min
		switch {
		case span == 0:
			return t.Min
		case r.Chance(0.2):
			return t.Min
		case r.Chance(0.2):
			return t.Max
		case r.Chance(0.25): // small delta around old value
			delta := uint64(1 + r.Intn(16))
			if r.Bool() && old >= t.Min+delta {
				return old - delta
			}
			if old+delta <= t.Max && old+delta >= old {
				return old + delta
			}
			return old
		default:
			if span == ^uint64(0) {
				return r.Uint64()
			}
			return t.Min + r.Uint64()%(span+1)
		}
	case spec.KindLen:
		// Corrupt the length: kernels must bound-check these.
		switch r.Intn(3) {
		case 0:
			return old + uint64(1+r.Intn(64))
		case 1:
			return uint64(r.Intn(1 << 16))
		default:
			if old > 0 {
				return old - 1
			}
			return 1
		}
	case spec.KindProc:
		return uint64(r.Intn(32))
	default:
		return r.Uint64()
	}
}

func (m *Mutator) mutateData(r *rng.Rand, v *prog.DataArg) {
	max := v.T.MaxSize
	if max <= 0 {
		max = 64
	}
	switch {
	case len(v.Data) > 0 && r.Chance(0.4): // flip bytes
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			v.Data[r.Intn(len(v.Data))] ^= byte(1 << r.Intn(8))
		}
	case r.Chance(0.5): // resize
		n := r.Intn(max + 1)
		data := make([]byte, n)
		copy(data, v.Data)
		for i := len(v.Data); i < n; i++ {
			data[i] = byte(r.Uint64())
		}
		v.Data = data
	default: // fresh content
		n := r.Intn(max + 1)
		v.Data = make([]byte, n)
		for i := range v.Data {
			v.Data[i] = byte(r.Uint64())
		}
	}
}

func (m *Mutator) mutatePointer(r *rng.Rand, v *prog.PointerArg) {
	if v.Null {
		v.Null = false
		v.Inner = prog.DefaultArg(v.T.Elem)
		return
	}
	// Usually leave the pointee alone (its own slots get mutated
	// separately); occasionally null the pointer to probe EFAULT paths.
	if r.Chance(0.3) {
		v.Null = true
		v.Inner = nil
	} else if v.Inner == nil {
		v.Inner = prog.DefaultArg(v.T.Elem)
	}
}

func (m *Mutator) mutateResource(r *rng.Rand, p *prog.Prog, callIdx int, v *prog.ResultArg) {
	var candidates []int
	for i := 0; i < callIdx; i++ {
		if p.Calls[i].Meta.Ret == v.T.Resource {
			candidates = append(candidates, i)
		}
	}
	switch {
	case len(candidates) > 0 && r.Chance(0.75):
		v.Ref = candidates[r.Intn(len(candidates))]
	case r.Chance(0.5):
		v.Ref = -1
		v.Val = ^uint64(0)
	default:
		v.Ref = -1
		v.Val = r.Uint64() % 64 // plausible-but-stale small handle
	}
}

// insertCall inserts a generated call at a random position.
func (m *Mutator) insertCall(r *rng.Rand, p *prog.Prog) Record {
	q := p.Clone()
	pos := 0
	if len(q.Calls) > 0 {
		pos = r.Intn(len(q.Calls) + 1)
	}
	meta := m.chooseInsertion(r, q, pos)
	c := m.Gen.GenerateCallAt(r, q, meta, pos)
	q.InsertCall(pos, c)
	return Record{Type: CallInsertion, Prog: q}
}

// chooseInsertion favours calls related to the program's resources — the
// Syzkaller heuristic that inserted calls should interact with existing
// state.
func (m *Mutator) chooseInsertion(r *rng.Rand, p *prog.Prog, pos int) *spec.Syscall {
	if pos > 0 && r.Chance(0.6) {
		kinds := map[string]bool{}
		for i := 0; i < pos; i++ {
			if ret := p.Calls[i].Meta.Ret; ret != "" {
				kinds[ret] = true
			}
		}
		var related []*spec.Syscall
		for _, c := range m.Target.Calls {
			if consumesAny(c, kinds) {
				related = append(related, c)
			}
		}
		if len(related) > 0 {
			return related[r.Intn(len(related))]
		}
	}
	return m.Target.Calls[r.Intn(len(m.Target.Calls))]
}

func consumesAny(c *spec.Syscall, kinds map[string]bool) bool {
	for _, s := range c.Slots() {
		if s.Type.Kind == spec.KindResource && kinds[s.Type.Resource] {
			return true
		}
	}
	return false
}

func (m *Mutator) removeCall(r *rng.Rand, p *prog.Prog) Record {
	q := p.Clone()
	if len(q.Calls) > 1 {
		q.RemoveCall(r.Intn(len(q.Calls)))
	}
	return Record{Type: CallRemoval, Prog: q}
}

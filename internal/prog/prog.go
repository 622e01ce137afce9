package prog

import (
	"fmt"

	"github.com/repro/snowplow/internal/spec"
)

// Call is one system-call invocation within a program.
type Call struct {
	Meta *spec.Syscall
	Args []Arg
}

// Prog is a kernel test: an ordered sequence of calls sharing a resource
// namespace (call i may consume resources produced by calls j < i).
type Prog struct {
	Target *spec.Registry
	Calls  []*Call
}

// Clone returns a deep copy of the program.
func (p *Prog) Clone() *Prog {
	c := &Prog{Target: p.Target, Calls: make([]*Call, len(p.Calls))}
	for i, call := range p.Calls {
		nc := &Call{Meta: call.Meta, Args: make([]Arg, len(call.Args))}
		for j, a := range call.Args {
			nc.Args[j] = a.clone()
		}
		c.Calls[i] = nc
	}
	return c
}

// ArgAtPath resolves a spec slot path within a call: path[0] indexes the
// top-level argument, subsequent elements descend through pointers (index 0)
// and struct fields. It returns nil if the path runs through a null pointer.
func (c *Call) ArgAtPath(path []int) Arg {
	if len(path) == 0 || path[0] >= len(c.Args) {
		return nil
	}
	a := c.Args[path[0]]
	for _, idx := range path[1:] {
		switch v := a.(type) {
		case *PointerArg:
			if v.Null || v.Inner == nil {
				return nil
			}
			a = v.Inner
		case *GroupArg:
			if idx >= len(v.Inner) {
				return nil
			}
			a = v.Inner[idx]
		default:
			return nil
		}
	}
	return a
}

// SlotArgs returns, for each flattened slot of the call's syscall, the
// argument instantiating it (nil where a null pointer cuts the subtree off).
// The returned slice is index-aligned with Meta.Slots().
func (c *Call) SlotArgs() []Arg {
	slots := c.Meta.Slots()
	args := make([]Arg, len(slots))
	for i, s := range slots {
		args[i] = c.ArgAtPath(s.Path)
	}
	return args
}

// NumSlots returns the total mutation surface of the program: the sum of
// slot counts over all calls (§5.1 reports >60 on average for syz tests).
func (p *Prog) NumSlots() int {
	n := 0
	for _, c := range p.Calls {
		n += len(c.Meta.Slots())
	}
	return n
}

// GlobalSlot identifies a slot within a whole program.
type GlobalSlot struct {
	Call int // call index
	Slot int // slot index within the call
}

// AllSlots enumerates every (call, slot) pair of the program.
func (p *Prog) AllSlots() []GlobalSlot {
	var out []GlobalSlot
	for ci, c := range p.Calls {
		for si := range c.Meta.Slots() {
			out = append(out, GlobalSlot{Call: ci, Slot: si})
		}
	}
	return out
}

// Validate checks structural invariants: argument trees match the spec
// types, resource references point to earlier calls producing the right
// kind. It returns the first violation found.
func (p *Prog) Validate() error {
	for ci, c := range p.Calls {
		if len(c.Args) != len(c.Meta.Args) {
			return fmt.Errorf("call %d (%s): %d args, spec wants %d", ci, c.Meta.Name, len(c.Args), len(c.Meta.Args))
		}
		for ai, a := range c.Args {
			if err := p.validateArg(ci, a, c.Meta.Args[ai].Type); err != nil {
				return fmt.Errorf("call %d (%s) arg %d: %w", ci, c.Meta.Name, ai, err)
			}
		}
	}
	return nil
}

func (p *Prog) validateArg(callIdx int, a Arg, t *spec.Type) error {
	if a == nil {
		return fmt.Errorf("nil arg for type %v", t.Kind)
	}
	switch v := a.(type) {
	case *ConstArg:
		switch t.Kind {
		case spec.KindInt, spec.KindFlags, spec.KindEnum, spec.KindLen, spec.KindProc:
			return nil
		}
		return fmt.Errorf("const arg for %v", t.Kind)
	case *StringArg:
		if t.Kind != spec.KindString {
			return fmt.Errorf("string arg for %v", t.Kind)
		}
	case *DataArg:
		if t.Kind != spec.KindBuffer {
			return fmt.Errorf("data arg for %v", t.Kind)
		}
	case *PointerArg:
		if t.Kind != spec.KindPtr {
			return fmt.Errorf("pointer arg for %v", t.Kind)
		}
		if !v.Null {
			return p.validateArg(callIdx, v.Inner, t.Elem)
		}
	case *GroupArg:
		if t.Kind != spec.KindStruct {
			return fmt.Errorf("group arg for %v", t.Kind)
		}
		if len(v.Inner) != len(t.Fields) {
			return fmt.Errorf("struct %s: %d fields, spec wants %d", t.Name, len(v.Inner), len(t.Fields))
		}
		for i, in := range v.Inner {
			if err := p.validateArg(callIdx, in, t.Fields[i].Type); err != nil {
				return fmt.Errorf("field %s: %w", t.Fields[i].Name, err)
			}
		}
	case *ResultArg:
		if t.Kind != spec.KindResource {
			return fmt.Errorf("result arg for %v", t.Kind)
		}
		if v.Ref >= 0 {
			if v.Ref >= callIdx {
				return fmt.Errorf("resource ref r%d does not precede call %d", v.Ref, callIdx)
			}
			prod := p.Calls[v.Ref].Meta
			if prod.Ret != t.Resource {
				return fmt.Errorf("resource ref r%d produces %q, want %q", v.Ref, prod.Ret, t.Resource)
			}
		}
	default:
		return fmt.Errorf("unknown arg type %T", a)
	}
	return nil
}

// RemoveCall deletes call i and repairs resource references: references to
// the removed call become invalid placeholders; references to later calls
// shift down by one.
func (p *Prog) RemoveCall(i int) {
	if i < 0 || i >= len(p.Calls) {
		panic("prog: RemoveCall index out of range")
	}
	p.Calls = append(p.Calls[:i], p.Calls[i+1:]...)
	p.remapResults(func(ref int) int {
		switch {
		case ref == i:
			return -1
		case ref > i:
			return ref - 1
		default:
			return ref
		}
	})
}

// InsertCall inserts c at position i, shifting later resource references up.
func (p *Prog) InsertCall(i int, c *Call) {
	if i < 0 || i > len(p.Calls) {
		panic("prog: InsertCall index out of range")
	}
	p.Calls = append(p.Calls, nil)
	copy(p.Calls[i+1:], p.Calls[i:])
	p.Calls[i] = c
	// References in calls after the insertion point to calls at or after i
	// must shift. References inside c itself are the caller's concern.
	for ci := i + 1; ci < len(p.Calls); ci++ {
		if p.Calls[ci] == c {
			continue
		}
		forEachResult(p.Calls[ci], func(ra *ResultArg) {
			if ra.Ref >= i {
				ra.Ref++
			}
		})
	}
}

func (p *Prog) remapResults(f func(int) int) {
	for _, c := range p.Calls {
		forEachResult(c, func(ra *ResultArg) {
			if ra.Ref >= 0 {
				if nr := f(ra.Ref); nr != ra.Ref {
					ra.Ref = nr
					if nr < 0 {
						ra.Val = ^uint64(0)
					}
				}
			}
		})
	}
}

func forEachResult(c *Call, f func(*ResultArg)) {
	var walk func(Arg)
	walk = func(a Arg) {
		switch v := a.(type) {
		case *ResultArg:
			f(v)
		case *PointerArg:
			if v.Inner != nil {
				walk(v.Inner)
			}
		case *GroupArg:
			for _, in := range v.Inner {
				walk(in)
			}
		}
	}
	for _, a := range c.Args {
		walk(a)
	}
}

// FixupLens recomputes every len[] field of the call from its target
// sibling's current size, restoring spec-consistent lengths after mutation
// or generation.
func (c *Call) FixupLens() {
	fixupLensIn(c.Args, c.Meta.Args)
}

func fixupLensIn(args []Arg, fields []spec.Field) {
	for i, a := range args {
		switch v := a.(type) {
		case *ConstArg:
			if fields[i].Type.Kind == spec.KindLen {
				if target := findSibling(args, fields, fields[i].Type.LenTarget); target != nil {
					v.Val = uint64(PointeeSize(target))
				}
			}
		case *PointerArg:
			if !v.Null && v.Inner != nil {
				if g, ok := v.Inner.(*GroupArg); ok {
					fixupLensIn(g.Inner, g.T.Fields)
				}
			}
		case *GroupArg:
			fixupLensIn(v.Inner, v.T.Fields)
		}
	}
}

func findSibling(args []Arg, fields []spec.Field, name string) Arg {
	for i, f := range fields {
		if f.Name == name {
			return args[i]
		}
	}
	return nil
}

package mutation

import (
	"testing"

	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
)

var target = spec.Base()

func genProg(t testing.TB, seed uint64, n int) *prog.Prog {
	t.Helper()
	return prog.NewGenerator(target).Generate(rng.New(seed), n)
}

func TestMutateProducesValidPrograms(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(1)
	p := genProg(t, 2, 4)
	for i := 0; i < 500; i++ {
		rec := m.Mutate(r, p)
		if rec.Prog == nil {
			t.Fatal("nil mutated program")
		}
		if err := rec.Prog.Validate(); err != nil {
			t.Fatalf("iteration %d (%v): invalid mutant: %v\n%s", i, rec.Type, err, rec.Prog.Serialize())
		}
	}
}

func TestMutateNeverModifiesInput(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(3)
	p := genProg(t, 4, 4)
	before := p.Serialize()
	for i := 0; i < 200; i++ {
		m.Mutate(r, p)
	}
	if p.Serialize() != before {
		t.Fatal("Mutate modified its input program")
	}
}

func TestMutateArgsTouchesOnlyChosenCall(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(5)
	p := genProg(t, 6, 4)
	slots := []prog.GlobalSlot{{Call: 1, Slot: 0}}
	for i := 0; i < 100; i++ {
		rec := m.MutateArgs(r, p, slots)
		for ci := range p.Calls {
			if ci == 1 {
				continue
			}
			if rec.Prog.Calls[ci].Meta != p.Calls[ci].Meta {
				t.Fatalf("call %d meta changed by arg mutation", ci)
			}
		}
		if len(rec.Prog.Calls) != len(p.Calls) {
			t.Fatal("arg mutation changed call count")
		}
	}
}

func TestMutateArgsChangesSomething(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(7)
	p := prog.MustParse(target, "r0 = open(\"./file0\", 0x42, 0x1ff)\n")
	// Slot 1 is open's flags.
	changed := 0
	const n = 100
	for i := 0; i < n; i++ {
		rec := m.MutateArgs(r, p, []prog.GlobalSlot{{Call: 0, Slot: 1}})
		if rec.Prog.Calls[0].Args[1].(*prog.ConstArg).Val != 0x42 {
			changed++
		}
	}
	if changed < n/2 {
		t.Fatalf("flags changed in only %d/%d mutations", changed, n)
	}
}

func TestMutateArgsSkipsOutOfRangeSlots(t *testing.T) {
	m := NewMutator(target)
	p := prog.MustParse(target, "r0 = open(\"./file0\", 0x42, 0x1ff)\n")
	bad := []prog.GlobalSlot{{Call: -1, Slot: 0}, {Call: 0, Slot: -1}, {Call: 1, Slot: 0}, {Call: 0, Slot: 99}}
	rec := m.MutateArgs(rng.New(8), p, bad)
	if rec.Prog.Serialize() != p.Serialize() {
		t.Fatalf("out-of-range slots changed the program:\n%s", rec.Prog.Serialize())
	}
}

func TestMaterializeNullPointerPath(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(9)
	p := prog.MustParse(target, "r0 = open(\"./file0\", 0x0, 0x0)\nread(r0, nil, 0x0)\n")
	read := p.Calls[1]
	var bufSlot int
	for _, s := range read.Meta.Slots() {
		if s.Type.Kind == spec.KindBuffer {
			bufSlot = s.Index
		}
	}
	rec := m.MutateArgs(r, p, []prog.GlobalSlot{{Call: 1, Slot: bufSlot}})
	ptr := rec.Prog.Calls[1].Args[1].(*prog.PointerArg)
	if ptr.Null {
		t.Fatal("null pointer not materialized for slot mutation behind it")
	}
	if _, ok := ptr.Inner.(*prog.DataArg); !ok {
		t.Fatalf("materialized pointee is %T", ptr.Inner)
	}
}

func TestRandomLocalizerKDistinct(t *testing.T) {
	p := genProg(t, 11, 5)
	r := rng.New(13)
	l := RandomLocalizer{K: 8}
	for i := 0; i < 50; i++ {
		slots := l.Localize(r, p)
		if len(slots) != 8 {
			t.Fatalf("got %d slots, want 8", len(slots))
		}
		seen := map[prog.GlobalSlot]bool{}
		for _, s := range slots {
			if seen[s] {
				t.Fatalf("duplicate slot %+v", s)
			}
			seen[s] = true
		}
	}
}

func TestRandomLocalizerSmallProgram(t *testing.T) {
	p := prog.MustParse(target, "close(0xffffffffffffffff)\n")
	l := RandomLocalizer{K: 8}
	slots := l.Localize(rng.New(1), p)
	if len(slots) != p.NumSlots() {
		t.Fatalf("K larger than surface: got %d slots, want all %d", len(slots), p.NumSlots())
	}
}

func TestSelectTypeDistribution(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(17)
	p := genProg(t, 18, 4)
	counts := map[Type]int{}
	for i := 0; i < 2000; i++ {
		counts[m.SelectType(r, p)]++
	}
	if counts[ArgMutation] < 1000 {
		t.Fatalf("ArgMutation selected only %d/2000", counts[ArgMutation])
	}
	if counts[CallInsertion] == 0 || counts[CallRemoval] == 0 {
		t.Fatalf("type starvation: %v", counts)
	}
}

func TestInsertionGrowsRemovalShrinks(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(19)
	p := genProg(t, 20, 4)
	ins := m.insertCall(r, p)
	if len(ins.Prog.Calls) != len(p.Calls)+1 {
		t.Fatalf("insert: %d -> %d calls", len(p.Calls), len(ins.Prog.Calls))
	}
	if err := ins.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
	rem := m.removeCall(r, p)
	if len(rem.Prog.Calls) != len(p.Calls)-1 {
		t.Fatalf("remove: %d -> %d calls", len(p.Calls), len(rem.Prog.Calls))
	}
	if err := rem.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemovalKeepsLastCall(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(21)
	p := prog.MustParse(target, "close(0xffffffffffffffff)\n")
	rec := m.removeCall(r, p)
	if len(rec.Prog.Calls) != 1 {
		t.Fatal("removal emptied a single-call program")
	}
}

func TestMutationRecordSlots(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(23)
	p := genProg(t, 24, 3)
	for i := 0; i < 200; i++ {
		rec := m.Mutate(r, p)
		switch rec.Type {
		case ArgMutation:
			if len(rec.Slots) == 0 {
				t.Fatal("arg mutation recorded no slots")
			}
		case CallInsertion, CallRemoval:
			if len(rec.Slots) != 0 {
				t.Fatal("call mutation recorded slots")
			}
		}
	}
}

func TestEnumMutationStaysInDomain(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(25)
	enum := target.EnumSet("sock_domain")
	valid := map[uint64]bool{}
	for _, v := range enum.Values {
		valid[v] = true
	}
	for i := 0; i < 200; i++ {
		v := m.mutateScalar(r, enum, 2)
		if !valid[v] {
			t.Fatalf("enum mutation produced out-of-domain value %#x", v)
		}
	}
}

func TestIntMutationRespectsRange(t *testing.T) {
	m := NewMutator(target)
	r := rng.New(27)
	typ := &spec.Type{Kind: spec.KindInt, Min: 100, Max: 200}
	for i := 0; i < 500; i++ {
		v := m.mutateScalar(r, typ, 150)
		if v < 100 || v > 200 {
			t.Fatalf("int mutation out of range: %d", v)
		}
	}
}

func BenchmarkMutate(b *testing.B) {
	m := NewMutator(target)
	r := rng.New(1)
	p := prog.NewGenerator(target).Generate(rng.New(2), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Mutate(r, p)
	}
}

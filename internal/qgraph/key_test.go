package qgraph

import (
	"testing"

	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/mutation"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
)

// TestQueryKeyMatchesSerialize checks that the structural key partitions
// programs exactly as their text does: over the pool, chains of mutants of
// each program, clones, and parse round trips (which canonicalize what the
// text drops, such as a producer-backed ResultArg's Val), two programs share
// a key if and only if they share a Serialize text.
func TestQueryKeyMatchesSerialize(t *testing.T) {
	m := mutation.NewMutator(testKernel.Target)
	r := rng.New(5)
	var progs []*prog.Prog
	for _, q := range queryPool(t) {
		p := q.p
		progs = append(progs, p, p.Clone(), prog.MustParse(testKernel.Target, p.Serialize()))
		for i := 0; i < 4; i++ {
			p = m.Mutate(r, p).Prog
			progs = append(progs, p)
		}
	}
	keyOf := map[string]cacheKey{}
	textOf := map[cacheKey]string{}
	for _, p := range progs {
		text, key := p.Serialize(), hashQuery(p, nil, nil)
		if k, ok := keyOf[text]; ok && k != key {
			t.Fatalf("equal texts, different keys:\n%s", text)
		}
		if s, ok := textOf[key]; ok && s != text {
			t.Fatalf("different texts, equal keys:\n%s\n---\n%s", s, text)
		}
		keyOf[text], textOf[key] = key, text
	}
	if len(keyOf) == len(progs) {
		t.Fatal("no two programs share a text: the equal direction went untested")
	}
}

// TestQueryKeyEdgeCases pins the cases where the text form and a naive
// structural walk disagree, and the boundary shifts a missing length prefix
// would confuse.
func TestQueryKeyEdgeCases(t *testing.T) {
	call := func(ret string, args ...prog.Arg) *prog.Prog {
		return &prog.Prog{Calls: []*prog.Call{{Meta: &spec.Syscall{Name: "probe", Ret: ret}, Args: args}}}
	}
	data := func(b ...byte) prog.Arg { return &prog.DataArg{Data: b} }
	str := func(s string) prog.Arg { return &prog.StringArg{Val: s} }
	val := func(v uint64) prog.Arg { return &prog.ConstArg{Val: v} }
	group := func(in ...prog.Arg) prog.Arg { return &prog.GroupArg{Inner: in} }
	cases := []struct {
		name string
		a, b *prog.Prog
	}{
		{"producer-backed ResultArg ignores Val",
			call("", &prog.ResultArg{Ref: 0, Val: 1}), call("", &prog.ResultArg{Ref: 0, Val: 2})},
		{"ResultArg producer index",
			call("", &prog.ResultArg{Ref: 0}), call("", &prog.ResultArg{Ref: 1})},
		{"placeholder ResultArg renders as a value",
			call("", &prog.ResultArg{Ref: -1, Val: 7}), call("", val(7))},
		{"placeholder value",
			call("", &prog.ResultArg{Ref: -1, Val: 7}), call("", &prog.ResultArg{Ref: -1, Val: 8})},
		{"null against non-null pointer",
			call("", &prog.PointerArg{Null: true}), call("", &prog.PointerArg{Inner: val(0)})},
		{"a null pointer ignores a stale pointee",
			call("", &prog.PointerArg{Null: true}), call("", &prog.PointerArg{Null: true, Inner: val(3)})},
		{"empty against one-byte DataArg", call("", data()), call("", data(0))},
		{"nil against empty DataArg", call("", &prog.DataArg{}), call("", data())},
		{"empty against one-byte StringArg", call("", str("")), call("", str("\x00"))},
		{"zero padding of the last word", call("", data(1)), call("", data(1, 0))},
		{"DataArg boundary shift", call("", data('a', 'b'), data()), call("", data('a'), data('b'))},
		{"StringArg boundary shift at a word edge",
			call("", str("abcdefgh"), str("")), call("", str("abcdefg"), str("h"))},
		{"string against equal bytes", call("", str("ab")), call("", data('a', 'b'))},
		{"struct field boundary shift",
			call("", group(group(val(1), val(2)), val(3))), call("", group(group(val(1)), val(2), val(3)))},
		{"empty struct against absent argument", call("", group()), call("")},
		{"result prefix", call("fd", val(1)), call("", val(1))},
	}
	for _, c := range cases {
		sameText := c.a.Serialize() == c.b.Serialize()
		if sameKey := hashQuery(c.a, nil, nil) == hashQuery(c.b, nil, nil); sameKey != sameText {
			t.Errorf("%s: equal keys %v, equal texts %v", c.name, sameKey, sameText)
		}
	}

	// Traces and targets are keyed with their lengths: moving a block
	// across a boundary changes the key.
	p := queryPool(t)[0].p
	blocks := func(bs ...kernel.BlockID) []kernel.BlockID { return bs }
	inputs := []struct {
		traces  [][]kernel.BlockID
		targets []kernel.BlockID
	}{
		{[][]kernel.BlockID{blocks(1, 2), blocks(3)}, nil},
		{[][]kernel.BlockID{blocks(1), blocks(2, 3)}, nil},
		{[][]kernel.BlockID{blocks(1, 2, 3)}, nil},
		{[][]kernel.BlockID{blocks(1, 2)}, blocks(3)},
		{[][]kernel.BlockID{blocks(1, 2), blocks(3), nil}, nil},
		{[][]kernel.BlockID{blocks(1, 2), blocks(3)}, blocks(0)},
	}
	seen := map[cacheKey]int{}
	for i, in := range inputs {
		k := hashQuery(p, in.traces, in.targets)
		if j, ok := seen[k]; ok {
			t.Errorf("trace/target inputs %d and %d share a key", j, i)
		}
		seen[k] = i
	}
}

// TestQueryKeyAllocs pins the key as allocation-free: it walks the program
// instead of rendering its text.
func TestQueryKeyAllocs(t *testing.T) {
	qs := queryPool(t)
	i := 0
	allocs := testing.AllocsPerRun(len(qs), func() {
		q := qs[i%len(qs)]
		i++
		_ = hashQuery(q.p, q.traces, q.targets)
	})
	if allocs != 0 {
		t.Fatalf("hashQuery allocates %v times per query, want 0", allocs)
	}
}

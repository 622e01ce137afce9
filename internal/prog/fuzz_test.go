package prog

import (
	"testing"

	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
)

// FuzzProgSerialize checks the serializer/parser round trip against
// arbitrary inputs: Parse must never panic on malformed text, and any text
// it does accept must survive Serialize -> Parse -> Serialize byte-for-byte
// (programs cross the dataset and network boundaries in this format).
func FuzzProgSerialize(f *testing.F) {
	target := spec.Base()

	// Seed corpus: generated programs (well-formed) ...
	g := NewGenerator(target)
	r := rng.New(1)
	for i := 0; i < 8; i++ {
		f.Add(g.Generate(r, 1+r.Intn(5)).Serialize())
	}
	// ... plus hand-written edge cases and near-misses.
	for _, s := range []string{
		"",
		"# just a comment\n",
		"r0 = open(\"./file0\", 0x42, 0x1ff)\nread(r0, &b\"00ff\", 0x2)\n",
		"open(\"./file0\", 0x42)\n",            // wrong arity
		"r1 = open(\"./f\", 0x0, 0x0)\n",       // result index mismatch
		"read(r9, nil, 0x0)\n",                 // dangling resource ref
		"unknown_call(0x1)\n",                  // unknown syscall
		"open(\"./f\", 0x0, 0x0",               // unterminated call
		"read(r0, &b\"zz\", 0x2)\n",            // bad hex buffer
		"open(\"\\x\", 0x0, 0x0)\n",            // bad string escape
		"read(0xffffffffffffffff, nil, 0x0)\n", // placeholder resource
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(target, text)
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		s1 := p.Serialize()
		p2, err := Parse(target, s1)
		if err != nil {
			t.Fatalf("serialized form does not reparse: %v\n%s", err, s1)
		}
		if s2 := p2.Serialize(); s2 != s1 {
			t.Fatalf("round trip not stable:\n-- first --\n%s\n-- second --\n%s", s1, s2)
		}
		if err := p2.Validate(); err != nil {
			t.Fatalf("reparsed program invalid: %v", err)
		}
	})
}

// Prediction-reference tests: every reference a receiver cannot resolve is
// a typed ErrBadMessage where it is resolved, and the reference form keeps
// a realistic delta small — so a regression back to shipping program texts
// fails here, not only in the benchmark.

package cluster

import (
	"errors"
	"strings"
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
)

func TestPredictionRefsOutOfRange(t *testing.T) {
	var corp refIndex
	corp.add("p0")
	corp.add("p1")

	// A corpus reference past the receiver's corpus, in a delta and in a
	// canonical state.
	d := fuzzer.VMDelta{State: fuzzer.VMState{Preds: []fuzzer.PredState{{Ref: 2, Pending: true}}}}
	if err := corp.resolveDeltas([]fuzzer.VMDelta{d}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("delta corpus reference past the corpus: %v", err)
	}
	states := []fuzzer.VMState{{Preds: []fuzzer.PredState{{Ref: 2}}}}
	if err := corp.resolveStates(states); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("state corpus reference past the corpus: %v", err)
	}

	// A local reference past the delta's Locals (1 + index, so 2 is one
	// past a single local).
	d = fuzzer.VMDelta{
		Locals: []fuzzer.Local{{Text: "l0"}},
		State:  fuzzer.VMState{Preds: []fuzzer.PredState{{Local: true, Ref: 2}}},
	}
	if err := corp.resolveDeltas([]fuzzer.VMDelta{d}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("local reference past the delta's locals: %v", err)
	}

	// A canonical state never holds a Local prediction.
	states = []fuzzer.VMState{{Preds: []fuzzer.PredState{{Local: true}}}}
	if err := corp.resolveStates(states); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("local prediction in a canonical state: %v", err)
	}

	// A checkpoint prediction reference past its Entries.
	ck := &Checkpoint{
		Spec:       fixtureSpec(),
		Entries:    []fuzzer.Accepted{{VM: -1, Seeded: true, Text: "prog-a", Traces: [][]kernel.BlockID{{1, 2}}}},
		TotalEdges: 1,
		Cover:      fixtureCover(1),
		States:     []fuzzer.VMState{fixtureCanonicalState()},
		JournalCap: 1,
	}
	if _, err := DecodeCheckpoint(ck.Encode()); err != nil {
		t.Fatalf("in-range checkpoint: %v", err)
	}
	if _, err := DecodeCheckpoint(checkpointWithPred(ck, fuzzer.PredState{Ref: 1, Pending: true})); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("checkpoint reference past its entries: %v", err)
	}
}

// TestPredictionRefsRoundTrip pins the conversion pair on canonical states:
// references out, the same texts back, and the sender's states untouched.
func TestPredictionRefsRoundTrip(t *testing.T) {
	var corp refIndex
	for _, text := range []string{"prog-b", "prog-a"} {
		corp.add(text)
	}
	states := []fuzzer.VMState{fixtureCanonicalState()}
	refs, err := corp.refStates(states)
	if err != nil {
		t.Fatal(err)
	}
	if ps := refs[0].Preds[0]; ps.Text != "" || ps.Ref != 1 {
		t.Fatalf("reference form: %+v", ps)
	}
	if states[0].Preds[0].Text != "prog-a" {
		t.Fatal("refStates rewrote the sender's states")
	}
	if err := corp.resolveStates(refs); err != nil {
		t.Fatal(err)
	}
	if got, want := refs[0].Preds[0], states[0].Preds[0]; got.Text != want.Text || got.Ref != 0 {
		t.Fatalf("resolved %+v, want %+v", got, want)
	}
	if _, err := corp.refStates([]fuzzer.VMState{{Preds: []fuzzer.PredState{{Text: "unknown"}}}}); err == nil {
		t.Fatal("a base outside the corpus converted")
	}
}

// TestDeltaRefsSize: a delta carrying 200 predictions on ≈ 700-byte
// programs encodes in a few kB — about 20 bytes a prediction instead of
// its base's program text.
func TestDeltaRefsSize(t *testing.T) {
	var corp refIndex
	var preds []fuzzer.PredState
	for i := 0; i < 200; i++ {
		text := strings.Repeat("r0 = open(&(0x7f0000000000), 0x0, 0x0)\n", 18) + strings.Repeat("x", i)
		corp.add(text)
		ps := fuzzer.PredState{Text: text, Pending: i%2 == 0}
		if ps.Pending {
			ps.Targets = []kernel.BlockID{kernel.BlockID(100 + i), kernel.BlockID(140 + i)}
		} else {
			ps.Slots = []prog.GlobalSlot{{Call: 1, Slot: 2}}
		}
		preds = append(preds, ps)
	}
	if n := len(preds[0].Text); n < 700 {
		t.Fatalf("fixture programs are %d bytes, want ≈ 700", n)
	}
	deltas := []fuzzer.VMDelta{{VM: 1, State: fuzzer.VMState{VM: 1, Preds: preds}}}
	if err := corp.refDeltas(deltas); err != nil {
		t.Fatal(err)
	}
	n := len(AppendDelta(nil, DeltaMsg{Epoch: 1, Deltas: deltas}))
	if n > 8<<10 {
		t.Fatalf("200-prediction delta encodes in %d bytes, want a few kB", n)
	}
	t.Logf("200-prediction delta: %d bytes", n)
}

// Reference form of prediction windows. A VM's prediction window names
// each base entry, and on the wire and in checkpoints it does so by
// reference (fuzzer.PredState.Ref) instead of by program text, because the
// receiver already holds every entry a window can name:
//
//   - a non-Local prediction names an entry of the corpus the receiver holds
//     once the message is applied — the coordinator's corpus, which equals
//     every worker's replica at each barrier; an Assign's Snapshot; a
//     checkpoint's Entries — by its publish-order index;
//   - a Local prediction names an entry of the same VMDelta's Locals by
//     1 + its index there;
//   - a Local prediction whose entry is not among those Locals (it lost an
//     earlier merge) travels as a dead reference, 0: the reconciler drops
//     every such prediction without reading its text.
//
// Conversion happens at the send and receive sites, never in the codec,
// which stays context-free (decode∘encode is the identity on every message
// in isolation). Each end keeps a refIndex over its corpus and extends it
// at every barrier; the corpus only grows, so indices never move.

package cluster

import (
	"fmt"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/fuzzer"
)

// refIndex numbers a corpus's entries in publish order, both ways.
type refIndex struct {
	texts []string
	idx   map[string]int
}

// add numbers the next entry. A corpus never holds a text twice; should a
// corrupt checkpoint's Entries, the first index is the one written, so the
// file fails its canonical re-encode.
func (x *refIndex) add(text string) {
	if x.idx == nil {
		x.idx = map[string]int{}
	}
	if _, dup := x.idx[text]; !dup {
		x.idx[text] = len(x.texts)
	}
	x.texts = append(x.texts, text)
}

// sync extends x with the entries corp published since the last call.
func (x *refIndex) sync(corp *corpus.Corpus) *refIndex {
	for _, e := range corp.Entries()[len(x.texts):] {
		x.add(e.Text)
	}
	return x
}

// toRef rewrites ps into reference form; locals are the Locals of the
// delta carrying it.
func (x *refIndex) toRef(ps *fuzzer.PredState, locals []fuzzer.Local) error {
	if ps.Local {
		ps.Ref = 0 // dead unless found below
		for i := range locals {
			if locals[i].Text == ps.Text {
				ps.Ref = i + 1
				break
			}
		}
	} else {
		i, ok := x.idx[ps.Text]
		if !ok {
			return fmt.Errorf("cluster: prediction base is not in the corpus: %.60q", ps.Text)
		}
		ps.Ref = i
	}
	ps.Text = ""
	return nil
}

// fromRef resolves ps's reference back to the base entry's text, leaving
// a dead reference's text empty.
func (x *refIndex) fromRef(ps *fuzzer.PredState, locals []fuzzer.Local) error {
	switch {
	case !ps.Local:
		if ps.Ref >= len(x.texts) {
			return fmt.Errorf("%w: prediction references corpus entry %d of %d", ErrBadMessage, ps.Ref, len(x.texts))
		}
		ps.Text = x.texts[ps.Ref]
	case ps.Ref > len(locals):
		return fmt.Errorf("%w: prediction references local %d of %d", ErrBadMessage, ps.Ref-1, len(locals))
	case ps.Ref > 0:
		ps.Text = locals[ps.Ref-1].Text
	}
	ps.Ref = 0
	return nil
}

// refDeltas converts the worker's freshly captured deltas in place.
func (x *refIndex) refDeltas(deltas []fuzzer.VMDelta) error {
	for i := range deltas {
		d := &deltas[i]
		for j := range d.State.Preds {
			if err := x.toRef(&d.State.Preds[j], d.Locals); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolveDeltas resolves every prediction of received deltas in place.
func (x *refIndex) resolveDeltas(deltas []fuzzer.VMDelta) error {
	for i := range deltas {
		d := &deltas[i]
		for j := range d.State.Preds {
			if err := x.fromRef(&d.State.Preds[j], d.Locals); err != nil {
				return err
			}
		}
	}
	return nil
}

// refStates returns canonical states in reference form, leaving states
// untouched. A canonical state holds no Local prediction: the merge
// resolved them all.
func (x *refIndex) refStates(states []fuzzer.VMState) ([]fuzzer.VMState, error) {
	out := append([]fuzzer.VMState(nil), states...)
	for i := range out {
		preds := append([]fuzzer.PredState(nil), out[i].Preds...)
		for j := range preds {
			if preds[j].Local {
				return nil, fmt.Errorf("cluster: VM %d canonical state holds a local prediction", out[i].VM)
			}
			if err := x.toRef(&preds[j], nil); err != nil {
				return nil, err
			}
		}
		out[i].Preds = preds
	}
	return out, nil
}

// resolveStates resolves received canonical states in place.
func (x *refIndex) resolveStates(states []fuzzer.VMState) error {
	for i := range states {
		for j := range states[i].Preds {
			ps := &states[i].Preds[j]
			if ps.Local {
				return fmt.Errorf("%w: VM %d canonical state holds a local prediction", ErrBadMessage, states[i].VM)
			}
			if err := x.fromRef(ps, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

package fuzzer

import (
	"testing"

	"github.com/repro/snowplow/internal/corpus"
)

// entryAudit wraps the in-process transport and records what crosses it.
type entryAudit struct {
	*Shard
	t     *testing.T
	corp  *corpus.Corpus
	built map[*corpus.Entry]bool // entries VMs built, as their deltas carried them
}

func (a *entryAudit) RunEpoch(epoch int64, accepted []Accepted, active []int) ([]VMDelta, error) {
	for _, acc := range accepted {
		if acc.Entry == nil || a.corp.ByText(acc.Text) != acc.Entry {
			a.t.Fatalf("epoch %d: accepted entry %q does not carry the authoritative corpus entry", epoch, acc.Text)
		}
	}
	deltas, err := a.Shard.RunEpoch(epoch, accepted, active)
	for _, d := range deltas {
		for _, l := range d.Locals {
			if l.Entry == nil {
				a.t.Fatalf("epoch %d: VM %d exported a local without its entry", epoch, d.VM)
			}
			a.built[l.Entry] = true
		}
	}
	return deltas, err
}

// TestInProcessTransportPassesEntries pins what makes the in-process
// transport free: nothing is encoded, parsed or rebuilt. The entry a VM
// built is the entry the merge inserts, the entry the next barrier hands
// back and the entry Fuzzer.Corpus() holds — one corpus, one set of
// pointers.
func TestInProcessTransportPassesEntries(t *testing.T) {
	cfg := baselineConfig(35, 200_000)
	cfg.VMs = 4
	f := New(cfg)
	rec, err := newReconciler(f.cfg, f.corp, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := f.corp.Len()
	shard := newShard(f.cfg, f.corp, nil, false)
	if shard.corp != f.Corpus() {
		t.Fatal("in-process shard keeps a corpus of its own")
	}
	if err := shard.Restore(rec.States); err != nil {
		t.Fatal(err)
	}
	audit := &entryAudit{Shard: shard, t: t, corp: f.corp, built: map[*corpus.Entry]bool{}}
	stats, err := rec.Run(audit, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries := f.Corpus().Entries()
	if len(entries) != stats.CorpusSize || len(entries) <= seeds {
		t.Fatalf("corpus has %d entries (%d seeds), stats say %d", len(entries), seeds, stats.CorpusSize)
	}
	for i, e := range entries[seeds:] {
		if !audit.built[e] {
			t.Fatalf("corpus entry %d was rebuilt: no VM exported this pointer", seeds+i)
		}
	}
}

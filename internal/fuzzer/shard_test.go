package fuzzer

import (
	"testing"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
	"github.com/repro/snowplow/internal/trace"
)

func viewCover(edges ...trace.Edge) *trace.Cover {
	c := trace.NewCover()
	for _, e := range edges {
		c.Add(e)
	}
	return c
}

// TestEpochViewAddDuplicateText pins epochView.Add's check order against
// corpus.Add's: a program whose text is already known — in the shared
// corpus or among the VM's own additions — contributes nothing, even when
// its cover would add edges. The view overlays its own edges on the shared
// total and never writes the shared cover.
func TestEpochViewAddDuplicateText(t *testing.T) {
	g := prog.NewGenerator(spec.Base())
	r := rng.New(1)
	shared, local := g.Generate(r, 2), g.Generate(r, 3)
	corp := corpus.New()
	corp.Add(shared, viewCover(1), trace.BlockSet{}, nil)
	sharedBefore := string(corp.AppendTotalSparse(nil))
	var blocks trace.BlockSet
	v := newEpochView(corp, &blocks)
	if n := v.Add(local, viewCover(1, 2), trace.BlockSet{}, nil); n != 1 {
		t.Fatalf("fresh program contributed %d", n)
	}
	if n := v.NewEdges(viewCover(1, 2, 3)); n != 1 {
		t.Fatalf("NewEdges over shared+local = %d, want 1", n)
	}
	for _, p := range []*prog.Prog{shared, local} {
		if n := v.Add(p.Clone(), viewCover(1, 2, 3), trace.BlockSet{}, nil); n != 0 {
			t.Fatalf("duplicate text contributed %d", n)
		}
		if v.Edges() != 2 || len(v.locals) != 1 || v.local.Len() != 1 {
			t.Fatalf("duplicate text changed the view: %d edges, %d locals", v.Edges(), len(v.locals))
		}
	}
	if v.Edges() != corp.TotalEdges()+v.local.Len() {
		t.Fatalf("view edges %d != shared %d + local %d", v.Edges(), corp.TotalEdges(), v.local.Len())
	}
	if corp.TotalEdges() != 1 || string(corp.AppendTotalSparse(nil)) != sharedBefore {
		t.Fatalf("epoch view wrote into the shared cover: %d edges", corp.TotalEdges())
	}
}

// TestEpochViewAddNothingNewAllocs pins the triage fast path: a new program
// whose cover adds no edge is rejected before it is serialized.
func TestEpochViewAddNothingNewAllocs(t *testing.T) {
	g := prog.NewGenerator(spec.Base())
	r := rng.New(2)
	corp := corpus.New()
	corp.Add(g.Generate(r, 2), viewCover(1, 2), trace.BlockSet{}, nil)
	var blocks trace.BlockSet
	v := newEpochView(corp, &blocks)
	p, cover := g.Generate(r, 3), viewCover(2)
	var scratch trace.BlockSet
	if n := testing.AllocsPerRun(100, func() {
		if v.Add(p, cover, scratch, nil) != 0 {
			t.Fatal("nothing-new program accepted")
		}
	}); n != 0 {
		t.Fatalf("rejecting a nothing-new program: %v allocs/run, want 0", n)
	}
}

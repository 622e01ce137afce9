package qgraph

import (
	"testing"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
	"github.com/repro/snowplow/internal/spec"
)

var (
	testKernel = kernel.MustBuild("6.8")
	testAn     = cfa.New(testKernel)
)

func buildGraph(t testing.TB, text string, targets []kernel.BlockID) (*Graph, *prog.Prog, *exec.Result) {
	t.Helper()
	p := prog.MustParse(testKernel.Target, text)
	res, err := exec.New(testKernel).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	g := NewBuilder(testKernel, testAn).Build(p, res.CallTraces, targets)
	return g, p, res
}

const simpleProg = "r0 = open(\"./file0\", 0x42, 0x1ff)\nread(r0, &b\"00ff\", 0x2)\n"

func TestGraphShape(t *testing.T) {
	g, p, _ := buildGraph(t, simpleProg, nil)
	st := g.Stats()
	if st.Syscalls != 2 {
		t.Fatalf("syscall vertices = %d", st.Syscalls)
	}
	if st.Args != p.NumSlots() {
		t.Fatalf("arg vertices = %d, want %d", st.Args, p.NumSlots())
	}
	if st.Covered == 0 || st.Alternatives == 0 {
		t.Fatalf("coverage part empty: %+v", st)
	}
	if st.CallOrder != 1 {
		t.Fatalf("call-order edges = %d", st.CallOrder)
	}
	if st.CtxSwitch != 4 { // entry+exit per call
		t.Fatalf("ctx-switch edges = %d", st.CtxSwitch)
	}
	if st.CoveredFlow == 0 || st.UncoveredFlow == 0 {
		t.Fatalf("flow edges missing: %+v", st)
	}
}

func TestArgVerticesAlignWithSlots(t *testing.T) {
	g, p, _ := buildGraph(t, simpleProg, nil)
	all := p.AllSlots()
	if len(g.ArgVertices) != len(all) {
		t.Fatalf("%d arg vertices for %d slots", len(g.ArgVertices), len(all))
	}
	for i, vi := range g.ArgVertices {
		v := g.Vertices[vi]
		if v.Kind != VArg {
			t.Fatalf("arg vertex %d has kind %v", i, v.Kind)
		}
		if v.Slot != all[i] || g.Slots[i] != all[i] {
			t.Fatalf("arg vertex %d slot %+v, want %+v", i, v.Slot, all[i])
		}
		slot := p.Calls[v.Slot.Call].Meta.Slots()[v.Slot.Slot]
		if v.TopArg != slot.Path[0] || v.Depth != len(slot.Path)-1 || v.TypeKind != slot.Type.Kind {
			t.Fatalf("arg vertex %d features mismatch: %+v vs slot %+v", i, v, slot)
		}
	}
}

func TestEdgesWellFormed(t *testing.T) {
	g, _, _ := buildGraph(t, simpleProg, nil)
	n := len(g.Vertices)
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			t.Fatalf("edge %+v out of range (%d vertices)", e, n)
		}
	}
}

func TestTargetMarking(t *testing.T) {
	g0, p, res := buildGraph(t, simpleProg, nil)
	// Pick a frontier block as target.
	var frontier kernel.BlockID = -1
	for _, v := range g0.Vertices {
		if v.Kind == VAlternative {
			frontier = v.Block
			break
		}
	}
	if frontier < 0 {
		t.Fatal("no alternatives")
	}
	g := NewBuilder(testKernel, testAn).Build(p, res.CallTraces, []kernel.BlockID{frontier})
	st := g.Stats()
	if st.Targets != 1 {
		t.Fatalf("targets = %d, want 1", st.Targets)
	}
	found := false
	for _, v := range g.Vertices {
		if v.Kind == VTarget && v.Block == frontier {
			found = true
			if len(v.Tokens) == 0 {
				t.Fatal("target vertex has no tokens")
			}
		}
	}
	if !found {
		t.Fatal("target vertex missing")
	}
}

func TestOffFrontierTargetIsolated(t *testing.T) {
	// Use a block from an entirely different handler as target: it must
	// appear as an isolated target vertex.
	far := testKernel.Handler("shmget").Entry
	g, _, _ := buildGraph(t, simpleProg, []kernel.BlockID{far})
	found := false
	for vi, v := range g.Vertices {
		if v.Kind == VTarget && v.Block == far {
			found = true
			for _, e := range g.Edges {
				if e.From == vi || e.To == vi {
					t.Fatal("off-frontier target has edges")
				}
			}
		}
	}
	if !found {
		t.Fatal("off-frontier target vertex missing")
	}
}

func TestResourceFlowEdges(t *testing.T) {
	g, p, _ := buildGraph(t, simpleProg, nil)
	// read's fd slot consumes open's result: there must be an EArgInOut
	// edge from open's syscall vertex (vertex of call 0) to that arg vertex.
	var openVertex int = -1
	for vi, v := range g.Vertices {
		if v.Kind == VSyscall && v.CallIdx == 0 {
			openVertex = vi
		}
	}
	var fdArgVertex int = -1
	for i, vi := range g.ArgVertices {
		v := g.Vertices[vi]
		if v.Slot.Call == 1 && v.TypeKind == spec.KindResource {
			fdArgVertex = vi
		}
		_ = i
	}
	if openVertex < 0 || fdArgVertex < 0 {
		t.Fatal("vertices not found")
	}
	found := false
	for _, e := range g.Edges {
		if e.Kind == EArgInOut && e.From == openVertex && e.To == fdArgVertex {
			found = true
		}
	}
	if !found {
		t.Fatal("resource data-flow edge missing")
	}
	_ = p
}

func TestAbsentSlotFlagged(t *testing.T) {
	g, _, _ := buildGraph(t, "r0 = open(\"./file0\", 0x0, 0x0)\nread(r0, nil, 0x0)\n", nil)
	absent := 0
	for _, vi := range g.ArgVertices {
		if g.Vertices[vi].Absent {
			absent++
		}
	}
	if absent == 0 {
		t.Fatal("no absent slots behind null pointer")
	}
}

func TestDropCtxSwitchAblation(t *testing.T) {
	p := prog.MustParse(testKernel.Target, simpleProg)
	res, err := exec.New(testKernel).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(testKernel, testAn)
	b.DropCtxSwitch = true
	g := b.Build(p, res.CallTraces, nil)
	if g.Stats().CtxSwitch != 0 {
		t.Fatal("ablation did not drop context-switch edges")
	}
}

func TestCoveredVerticesDeduplicated(t *testing.T) {
	// Two reads cover overlapping handler blocks; they must share vertices.
	g, _, res := buildGraph(t,
		"r0 = open(\"./file0\", 0x0, 0x0)\nread(r0, &b\"00\", 0x1)\nread(r0, &b\"00\", 0x1)\n", nil)
	unique := map[kernel.BlockID]bool{}
	for _, tr := range res.CallTraces {
		for _, b := range tr {
			unique[b] = true
		}
	}
	if got := g.Stats().Covered; got != len(unique) {
		t.Fatalf("covered vertices = %d, want %d unique blocks", got, len(unique))
	}
}

func TestGraphSizeScales(t *testing.T) {
	// §5.1 reports thousands of vertices for 5-call tests; we just assert
	// that graphs are substantial and grow with program size.
	gen := prog.NewGenerator(testKernel.Target)
	e := exec.New(testKernel)
	b := NewBuilder(testKernel, testAn)
	r := rng.New(3)
	small, large := 0, 0
	for i := 0; i < 5; i++ {
		p1 := gen.Generate(r, 1)
		res1, err := e.Run(p1)
		if err != nil {
			t.Fatal(err)
		}
		small += len(b.Build(p1, res1.CallTraces, nil).Vertices)
		p5 := gen.Generate(r, 5)
		res5, err := e.Run(p5)
		if err != nil {
			t.Fatal(err)
		}
		large += len(b.Build(p5, res5.CallTraces, nil).Vertices)
	}
	if large <= small {
		t.Fatalf("graph size does not scale: 1-call total %d, 5-call total %d", small, large)
	}
	if large/5 < 50 {
		t.Fatalf("5-call graphs average only %d vertices", large/5)
	}
}

package exec

import (
	"testing"

	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/rng"
)

var testKernel = kernel.MustBuild("6.8")

func run(t *testing.T, e *Executor, text string) *Result {
	t.Helper()
	p := prog.MustParse(testKernel.Target, text)
	res, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSimpleProgram(t *testing.T) {
	e := New(testKernel)
	res := run(t, e, "r0 = open(\"./file0\", 0x42, 0x1ff)\nread(r0, &b\"00ff\", 0x2)\n")
	if len(res.CallTraces) != 2 {
		t.Fatalf("%d call traces", len(res.CallTraces))
	}
	for i, tr := range res.CallTraces {
		if len(tr) < 3 {
			t.Fatalf("call %d trace too short: %v", i, tr)
		}
	}
	if res.Crash != nil {
		t.Fatalf("unexpected crash: %v", res.Crash.Title)
	}
	if res.Cost != len(res.CallTraces[0])+len(res.CallTraces[1]) {
		t.Fatal("cost does not equal total trace length")
	}
}

func TestDeterministicExecution(t *testing.T) {
	e := New(testKernel)
	text := "r0 = open(\"./file0\", 0x42, 0x1ff)\nread(r0, &b\"00ff\", 0x2)\nwrite(r0, &b\"aa\", 0x1)\n"
	a := run(t, e, text)
	b := run(t, e, text)
	if len(a.CallTraces) != len(b.CallTraces) {
		t.Fatal("trace counts differ")
	}
	for i := range a.CallTraces {
		if len(a.CallTraces[i]) != len(b.CallTraces[i]) {
			t.Fatalf("call %d trace lengths differ", i)
		}
		for j := range a.CallTraces[i] {
			if a.CallTraces[i][j] != b.CallTraces[i][j] {
				t.Fatalf("call %d diverges at step %d", i, j)
			}
		}
	}
}

func TestSnapshotIsolationAcrossRuns(t *testing.T) {
	// Kernel state must reset between runs: counters accumulated by one
	// program must not leak into the next (the §3.1 VM-snapshot property).
	e := New(testKernel)
	text := "r0 = open(\"./file0\", 0x0, 0x0)\n"
	first := run(t, e, text)
	for i := 0; i < 5; i++ {
		if got := run(t, e, text); len(got.CallTraces[0]) != len(first.CallTraces[0]) {
			t.Fatalf("run %d trace differs from first run", i)
		}
	}
}

func TestResourceWiringAffectsPath(t *testing.T) {
	// A valid fd must pass the validity gate; an invalid one must take the
	// error return, producing a different trace.
	e := New(testKernel)
	valid := run(t, e, "r0 = open(\"./file0\", 0x0, 0x0)\nread(r0, &b\"00\", 0x1)\n")
	invalid := run(t, e, "read(0xffffffffffffffff, &b\"00\", 0x1)\n")
	vTrace := valid.CallTraces[1]
	iTrace := invalid.CallTraces[0]
	if len(iTrace) >= len(vTrace) {
		t.Fatalf("invalid-fd path (%d blocks) not shorter than valid path (%d)", len(iTrace), len(vTrace))
	}
	if !valid.Succeeded[1] {
		t.Fatal("read with valid fd did not succeed")
	}
	if invalid.Succeeded[0] {
		t.Fatal("read with invalid fd succeeded")
	}
}

func TestCloseInvalidatesHandle(t *testing.T) {
	e := New(testKernel)
	res := run(t, e,
		"r0 = open(\"./file0\", 0x0, 0x0)\n"+
			"close(r0)\n"+
			"read(r0, &b\"00\", 0x1)\n")
	if res.Succeeded[2] {
		t.Fatal("read after close succeeded")
	}
}

func TestArgumentsChangeCoverage(t *testing.T) {
	// Different flag values must steer different kernel paths for at least
	// some argument choices (the premise of argument mutation).
	e := New(testKernel)
	base := run(t, e, "r0 = open(\"./file0\", 0x0, 0x0)\n")
	diff := false
	for _, flags := range []string{"0x1", "0x2", "0x40", "0x42", "0x200", "0x4042"} {
		res := run(t, e, "r0 = open(\"./file0\", "+flags+", 0x0)\n")
		if len(res.CallTraces[0]) != len(base.CallTraces[0]) {
			diff = true
			break
		}
		for j := range res.CallTraces[0] {
			if res.CallTraces[0][j] != base.CallTraces[0][j] {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("no flag value changed open's kernel path")
	}
}

func TestATABugTriggers(t *testing.T) {
	// The Table-4 ATA bug: the exact chain from the paper must crash.
	e := New(testKernel)
	res := run(t, e,
		"r0 = open(\"./file0\", 0x0, 0x0)\n"+
			"r1 = openat$scsi(r0, \"./sg0\", 0x2, 0x0)\n"+
			// cmd=SCSI_IOCTL_SEND_COMMAND(0x1); hdr: opcode=ATA_16(0x85),
			// tf{proto=PIO(1), command=NOP(0), nsect,lbal,lbam,lbah,device},
			// inlen=0x400 (>512), outlen, data.
			"ioctl$SCSI_IOCTL_SEND_COMMAND(r1, 0x1, &{0x85, &{0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}, 0x400, 0x0, &b\"00\"})\n")
	if res.Crash == nil {
		t.Fatal("ATA bug chain did not crash")
	}
	if res.Crash.Title != "KASAN: out-of-bounds Write in ata_pio_sector" {
		t.Fatalf("wrong crash: %s", res.Crash.Title)
	}
	if res.CrashCall != 2 {
		t.Fatalf("crash attributed to call %d", res.CrashCall)
	}
}

func TestATABugNeedsFullChain(t *testing.T) {
	// Breaking any single constraint must avoid the crash.
	e := New(testKernel)
	variants := []string{
		// wrong cmd
		"ioctl$SCSI_IOCTL_SEND_COMMAND(r1, 0x5382, &{0x85, &{0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}, 0x400, 0x0, &b\"00\"})\n",
		// wrong opcode
		"ioctl$SCSI_IOCTL_SEND_COMMAND(r1, 0x1, &{0x12, &{0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}, 0x400, 0x0, &b\"00\"})\n",
		// wrong protocol (DMA)
		"ioctl$SCSI_IOCTL_SEND_COMMAND(r1, 0x1, &{0x85, &{0x2, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}, 0x400, 0x0, &b\"00\"})\n",
		// wrong ATA command (IDENTIFY)
		"ioctl$SCSI_IOCTL_SEND_COMMAND(r1, 0x1, &{0x85, &{0x1, 0xec, 0x0, 0x0, 0x0, 0x0, 0x0}, 0x400, 0x0, &b\"00\"})\n",
		// inlen within bounds
		"ioctl$SCSI_IOCTL_SEND_COMMAND(r1, 0x1, &{0x85, &{0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}, 0x100, 0x0, &b\"00\"})\n",
	}
	prefix := "r0 = open(\"./file0\", 0x0, 0x0)\nr1 = openat$scsi(r0, \"./sg0\", 0x2, 0x0)\n"
	for i, v := range variants {
		res := run(t, e, prefix+v)
		if res.Crash != nil {
			t.Fatalf("variant %d crashed (%s) despite broken constraint", i, res.Crash.Title)
		}
	}
}

func TestCounterBugNeedsAccumulatedState(t *testing.T) {
	// Table-4 bug #6 requires ops_fs > 12 before fsync.
	e := New(testKernel)
	var text string
	text = "r0 = open(\"./file0\", 0x0, 0x0)\nfsync(r0)\n"
	if res := run(t, e, text); res.Crash != nil {
		t.Fatalf("fsync crashed without pressure: %s", res.Crash.Title)
	}
	text = "r0 = open(\"./file0\", 0x0, 0x0)\n"
	for i := 0; i < 14; i++ {
		text += "fsync(r0)\n"
	}
	res := run(t, e, text)
	if res.Crash == nil {
		t.Fatal("fsync under pressure did not crash")
	}
	if res.Crash.Title != "kernel BUG in ext4_do_writepages" {
		t.Fatalf("wrong crash: %s", res.Crash.Title)
	}
}

func TestNullPointerTakesShallowPath(t *testing.T) {
	e := New(testKernel)
	withPtr := run(t, e, "r0 = open(\"./file0\", 0x0, 0x0)\nread(r0, &b\"0000\", 0x2)\n")
	nullPtr := run(t, e, "r0 = open(\"./file0\", 0x0, 0x0)\nread(r0, nil, 0x2)\n")
	// Programs must both run; traces may differ but must be well-formed.
	if len(withPtr.CallTraces[1]) == 0 || len(nullPtr.CallTraces[1]) == 0 {
		t.Fatal("empty traces")
	}
}

func TestNoiseModelPerturbsTraces(t *testing.T) {
	text := "r0 = open(\"./file0\", 0x0, 0x0)\nread(r0, &b\"00\", 0x1)\n"
	noisy := New(testKernel).WithNoise(&NoiseModel{Rand: rng.New(1), InterruptProb: 1.0})
	clean := New(testKernel)
	p := prog.MustParse(testKernel.Target, text)
	nres, err := noisy.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := clean.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Cost <= cres.Cost {
		t.Fatalf("noise did not add background coverage: %d vs %d", nres.Cost, cres.Cost)
	}
}

func TestSharedStateCarriesOver(t *testing.T) {
	e := New(testKernel).WithNoise(&NoiseModel{Rand: rng.New(2), SharedState: true})
	text := "r0 = open(\"./file0\", 0x0, 0x0)\nfsync(r0)\n"
	// With shared state, fs op counters accumulate across runs; eventually
	// the counter-gated writepages bug fires even though a single run never
	// reaches 12 fs ops.
	crashed := false
	for i := 0; i < 30; i++ {
		p := prog.MustParse(testKernel.Target, text)
		res, err := e.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crash != nil {
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("shared state never accumulated to the counter bug")
	}
}

func TestGeneratedProgramsExecute(t *testing.T) {
	e := New(testKernel)
	g := prog.NewGenerator(testKernel.Target)
	r := rng.New(77)
	for i := 0; i < 300; i++ {
		p := g.Generate(r, 1+r.Intn(6))
		if _, err := e.Run(p); err != nil {
			t.Fatalf("generated program failed to execute: %v\n%s", err, p.Serialize())
		}
	}
}

func BenchmarkExecute(b *testing.B) {
	e := New(testKernel)
	g := prog.NewGenerator(testKernel.Target)
	p := g.Generate(rng.New(1), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

var allocSink *Result

// TestMachineRunAllocs pins Run's allocation budget: the Result and its
// trace slices, nothing per call or per run beyond them (kernel state, slot
// views and the resource table are executor scratch).
func TestMachineRunAllocs(t *testing.T) {
	m := NewMachine(testKernel, 0)
	g := prog.NewGenerator(testKernel.Target)
	r := rng.New(17)
	measured := 0
	for i := 0; i < 20; i++ {
		p := g.Generate(r, 1+r.Intn(6))
		res, err := m.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if touchesFlaky(res) {
			continue // its trace depends on the flaky-crash stream
		}
		measured++
		// The same appends Run makes, into a fresh Result.
		want := testing.AllocsPerRun(20, func() {
			out := &Result{}
			for ci, tr := range res.CallTraces {
				var cp []kernel.BlockID
				for _, b := range tr {
					cp = append(cp, b)
				}
				out.CallTraces = append(out.CallTraces, cp)
				out.Succeeded = append(out.Succeeded, res.Succeeded[ci])
			}
			allocSink = out
		})
		got := testing.AllocsPerRun(20, func() {
			if allocSink, err = m.Run(p); err != nil {
				t.Fatal(err)
			}
		})
		if got > want {
			t.Errorf("program %d (%d calls): Run made %v allocs, want at most %v (Result + traces)\n%s",
				i, len(p.Calls), got, want, p.Serialize())
		}
	}
	if measured < 10 {
		t.Fatalf("only %d of 20 programs avoid flaky crash blocks", measured)
	}
}

func touchesFlaky(res *Result) bool {
	for _, tr := range res.CallTraces {
		for _, id := range tr {
			if b := testKernel.Block(id); b.Kind == kernel.BlockCrash && b.Crash.Flaky {
				return true
			}
		}
	}
	return false
}

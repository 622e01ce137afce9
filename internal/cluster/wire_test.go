// Wire and checkpoint format tests: golden round trips for every message
// kind, typed-error coverage for version/truncation/corruption failures,
// and byte-stability of the encoding (the codec is a persistence format —
// checkpoints outlive processes — so its bytes must not drift silently).

package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/prog"
	"github.com/repro/snowplow/internal/trace"
)

// fixtureCover builds the sparse encoding of a cover holding exactly n
// edges, for checkpoint fixtures whose TotalEdges must match their Cover.
func fixtureCover(n int) []byte {
	cov := trace.NewCover()
	for i := 0; i < n; i++ {
		cov.Add(trace.MakeEdge(kernel.BlockID(i/7), kernel.BlockID(100+i)))
	}
	return cov.AppendSparse(nil)
}

// words encodes each value as one little-endian 8-byte word, the layout of
// every fixed-width scalar on the wire.
func words(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// fixtureSpec is a fully populated spec exercising every field.
func fixtureSpec() CampaignSpec {
	return CampaignSpec{
		Mode:          1,
		KernelVersion: "6.8",
		Seed:          0xdeadbeef,
		Budget:        1_000_000,
		TotalVMs:      4,
		SyncEvery:     512,
		SampleEvery:   10_000,
		FallbackProb:  0.125,
		Journal:       true,
		SeedProgs:     []string{"prog-a", "prog-b"},
		Model:         []byte{1, 2, 3, 4, 5},
	}
}

func fixtureVMState() fuzzer.VMState {
	return fuzzer.VMState{
		VM:          2,
		RNG:         [4]uint64{1, 2, 3, 4},
		Flaky:       [4]uint64{5, 6, 7, 8},
		Execs:       100,
		BlocksRun:   2000,
		Cost:        2000,
		Budget:      250_000,
		Epochs:      7,
		Reconciled:  42,
		Phantom:     1,
		QueueWaitNs: 12345,
		Counters: fuzzer.VMCounters{
			Executions:     100,
			PMMQueries:     10,
			PMMPredictions: 9,
			PMMFailed:      1,
			Yield:          fuzzer.YieldStats{GuidedExecs: 5, GuidedEdges: 3, RandArgExecs: 50, RandArgEdges: 11},
		},
		Crashes: []fuzzer.CrashState{{
			Title: "KASAN: use-after-free in f", Category: "memory", Detector: "kasan",
			KnownSince: "v6.1", Flaky: true, ProgText: "close(r0)", Cost: 777,
		}},
		Preds: []fuzzer.PredState{
			{Text: "prog-a", Pending: true, Targets: []kernel.BlockID{3, 9}},
			{Text: "prog-b", Local: true, Slots: []prog.GlobalSlot{{Call: 0, Slot: 1}, {Call: 2, Slot: 0}}},
		},
	}
}

// fixtureWireState is fixtureVMState with its prediction window in the
// reference form a send site leaves it in (refs.go): each base named by
// Ref, no Text. The codec carries exactly this form, so it round-trips.
func fixtureWireState() fuzzer.VMState {
	st := fixtureVMState()
	st.Preds = []fuzzer.PredState{
		{Ref: 3, Pending: true, Targets: []kernel.BlockID{3, 9}},
		{Ref: 1, Local: true, Slots: []prog.GlobalSlot{{Call: 0, Slot: 1}, {Call: 2, Slot: 0}}},
	}
	return st
}

// fixtureCanonicalState is fixtureVMState as a merge leaves it: no Local
// prediction, every base in the fixture checkpoints' Entries ("prog-a").
func fixtureCanonicalState() fuzzer.VMState {
	st := fixtureVMState()
	st.Preds = st.Preds[:1]
	return st
}

func fixtureDelta() fuzzer.VMDelta {
	return fuzzer.VMDelta{
		VM: 2,
		Locals: []fuzzer.Local{
			{Text: "prog-a", Traces: [][]kernel.BlockID{{1, 2, 3}, {4}}},
			{Text: "prog-b", Traces: [][]kernel.BlockID{{5, 6}}, Seeded: true},
		},
		Events: []obs.Event{
			{Kind: obs.EventNewEdges, VM: 2, Epoch: 3, Cost: 1500, Value: 7, Detail: "x"},
			{Kind: obs.EventCrash, VM: 2, Epoch: 3, Cost: 1600, Detail: "KASAN: slab-out-of-bounds"},
		},
		State: fixtureVMState(),
	}
}

// TestWireRoundTrips pins decode(encode(m)) == m for every message kind.
func TestWireRoundTrips(t *testing.T) {
	hello := Hello{Proto: protoVersion}
	if got, err := DecodeHello(EncodeHello(hello)); err != nil || got != hello {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}

	wm := WireMsg{Level: 6}
	if got, err := DecodeWireMsg(EncodeWireMsg(wm)); err != nil || got != wm {
		t.Fatalf("wire msg round trip: %+v, %v", got, err)
	}

	assign := Assign{
		Spec:       fixtureSpec(),
		VMs:        []int{2, 3},
		Snapshot:   []fuzzer.Accepted{{VM: -1, Seeded: true, Text: "prog-a", Traces: [][]kernel.BlockID{{1, 2}}}},
		States:     []fuzzer.VMState{fixtureWireState()},
		StartEpoch: 9,
	}
	if got, err := DecodeAssign(AppendAssign(nil, assign)); err != nil || !reflect.DeepEqual(got, assign) {
		t.Fatalf("assign round trip: %+v, %v", got, err)
	}

	epoch := EpochMsg{Epoch: 4, Accepted: []fuzzer.Accepted{{VM: 1, Text: "p", Traces: [][]kernel.BlockID{{7}}}}}
	if got, err := DecodeEpoch(AppendEpoch(nil, epoch)); err != nil || !reflect.DeepEqual(got, epoch) {
		t.Fatalf("epoch round trip: %+v, %v", got, err)
	}

	d := fixtureDelta()
	d.CrashBase = 1
	d.State = fixtureWireState()
	delta := DeltaMsg{Epoch: 4, Deltas: []fuzzer.VMDelta{d}}
	if got, err := DecodeDelta(AppendDelta(nil, delta)); err != nil || !reflect.DeepEqual(got, delta) {
		t.Fatalf("delta round trip: %+v, %v", got, err)
	}

	restore := RestoreMsg{Epoch: 5, States: []fuzzer.VMState{fixtureWireState()}}
	if got, err := DecodeRestore(AppendRestore(nil, restore)); err != nil || !reflect.DeepEqual(got, restore) {
		t.Fatalf("restore round trip: %+v, %v", got, err)
	}

	final := FinalMsg{States: []fuzzer.VMState{fixtureWireState()}}
	if got, err := DecodeFinal(AppendFinal(nil, final)); err != nil || !reflect.DeepEqual(got, final) {
		t.Fatalf("final round trip: %+v, %v", got, err)
	}

	model := ModelMsg{Version: 3, Model: bytes.Repeat([]byte{7, 1}, 100)}
	if got, err := DecodeModelMsg(AppendModelMsg(nil, model)); err != nil || !reflect.DeepEqual(got, model) {
		t.Fatalf("model round trip: %+v, %v", got, err)
	}

	em := ErrMsg{Msg: "boom"}
	if got, err := DecodeErr(EncodeErr(em)); err != nil || got != em {
		t.Fatalf("err round trip: %+v, %v", got, err)
	}
}

// TestWireEmptyRoundTrips pins the zero values: empty messages must encode
// and decode cleanly (empty shards and empty epochs are legal).
func TestWireEmptyRoundTrips(t *testing.T) {
	if got, err := DecodeAssign(AppendAssign(nil, Assign{})); err != nil || !reflect.DeepEqual(got, Assign{}) {
		t.Fatalf("empty assign: %+v, %v", got, err)
	}
	if got, err := DecodeEpoch(AppendEpoch(nil, EpochMsg{})); err != nil || !reflect.DeepEqual(got, EpochMsg{}) {
		t.Fatalf("empty epoch: %+v, %v", got, err)
	}
	if got, err := DecodeDelta(AppendDelta(nil, DeltaMsg{})); err != nil || !reflect.DeepEqual(got, DeltaMsg{}) {
		t.Fatalf("empty delta: %+v, %v", got, err)
	}
	if got, err := DecodeFinal(AppendFinal(nil, FinalMsg{})); err != nil || !reflect.DeepEqual(got, FinalMsg{}) {
		t.Fatalf("empty final: %+v, %v", got, err)
	}
}

// TestWireTypedErrors pins the error taxonomy: truncation at every byte
// boundary yields ErrTruncated or ErrBadMessage (never a panic or silent
// success), and trailing garbage is rejected.
func TestWireTypedErrors(t *testing.T) {
	full := AppendDelta(nil, DeltaMsg{Epoch: 4, Deltas: []fuzzer.VMDelta{fixtureDelta()}})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeDelta(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(full))
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMessage) {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
	if _, err := DecodeDelta(append(append([]byte(nil), full...), 0x00)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing garbage: %v", err)
	}
	// A length prefix claiming more items than bytes remain must be
	// rejected before allocation.
	huge := AppendEpoch(nil, EpochMsg{})
	huge[8] = 0xff // accepted-list length -> bogus
	if _, err := DecodeEpoch(huge); err == nil {
		t.Fatal("bogus list length decoded successfully")
	}
}

// TestCheckpointRoundTrip pins the checkpoint container: golden round trip,
// version gating, digest verification and truncation behavior.
func TestCheckpointRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		Spec:        fixtureSpec(),
		Epoch:       16,
		Seq:         321,
		NextSample:  50_000,
		Series:      []fuzzer.Point{{Cost: 10_000, Edges: 120}, {Cost: 20_000, Edges: 150}},
		Entries:     []fuzzer.Accepted{{VM: -1, Seeded: true, Text: "prog-a", Traces: [][]kernel.BlockID{{1, 2}}}},
		TotalEdges:  150,
		Cover:       fixtureCover(150),
		States:      []fuzzer.VMState{fixtureCanonicalState()},
		PendingSeed: []obs.Event{{Kind: obs.EventSeed, Value: 10}},
		JournalCap:  8192,
		Journal:     []obs.Event{{Seq: 0, Kind: obs.EventCampaignStart, VM: -1, Detail: "syzkaller seed=1 vms=4 budget=100"}},
		JournalNext: 1,
	}
	data := ck.Encode()
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	ck.ModelDigest = got.ModelDigest // Encode computes it; compare the rest
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("checkpoint round trip diverged:\n%+v\nvs\n%+v", got, ck)
	}

	if !bytes.Equal(data, got.Encode()) {
		t.Fatal("checkpoint re-encode is not byte-identical")
	}

	if _, err := DecodeCheckpoint([]byte("XXXX\x01\x00\x00\x00\x00\x00\x00\x00")); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad magic: %v", err)
	}
	// Unknown versions and every earlier one are refused: a v3 body holds
	// prediction texts where v4 holds references, a v4 body carries the
	// degraded-serving fields v5 dropped, and a v5 spec the schedule
	// fields v6 dropped.
	for _, v := range []byte{99, 5, 4, 3, 2} {
		bad := append([]byte(nil), data...)
		bad[4] = v // version field
		if _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("checkpoint version %d: %v", v, err)
		}
	}
	for _, cut := range []int{0, 3, 11, len(data) / 2, len(data) - 1} {
		if _, err := DecodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncated checkpoint (%d bytes) decoded", cut)
		}
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xff // model digest byte
	if _, err := DecodeCheckpoint(corrupt); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("corrupt model digest: %v", err)
	}
}

// TestWriteCheckpointFileAtomic exercises the temp+rename path.
func TestWriteCheckpointFileAtomic(t *testing.T) {
	path := t.TempDir() + "/camp.ckpt"
	ck := &Checkpoint{Spec: fixtureSpec(), Epoch: 1, JournalCap: 1, Cover: fixtureCover(0)}
	if err := WriteCheckpointFile(path, ck.Encode()); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a second checkpoint; the rename must replace.
	ck.Epoch = 2
	if err := WriteCheckpointFile(path, ck.Encode()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 {
		t.Fatalf("checkpoint file holds epoch %d, want 2", got.Epoch)
	}
}

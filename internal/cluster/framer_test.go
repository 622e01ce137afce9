// Frame-compression and codec tests: golden bytes for the sparse varint
// encoding and the handshake messages, structural checks on compressed
// frames (the flate bytes themselves vary across Go releases, so goldens
// stop at the layout), and regressions for every decompression-bomb guard.

package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
)

// TestWireEncodingStable pins exact bytes for a small epoch message —
// scalars and list headers are fixed-width, trace block lists are varint
// deltas. The codec is a persistence format (checkpoints reuse it), so
// accidental layout changes must fail a test, not silently orphan old
// checkpoints.
func TestWireEncodingStable(t *testing.T) {
	got := AppendEpoch(nil, EpochMsg{Epoch: 1, Accepted: []fuzzer.Accepted{{VM: 1, Text: "ab", Traces: [][]kernel.BlockID{{2, 3, 7}}}}})
	want := []byte{
		1, 0, 0, 0, 0, 0, 0, 0, // epoch
		1, 0, 0, 0, 0, 0, 0, 0, // accepted count
		1, 0, 0, 0, 0, 0, 0, 0, // VM
		0,                      // seeded=false
		2, 0, 0, 0, 0, 0, 0, 0, // len("ab")
		'a', 'b',
		1,       // trace count (uvarint)
		3,       // block count (uvarint)
		4, 2, 8, // zigzag deltas: +2, +1, +4
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire layout changed:\ngot  %v\nwant %v", got, want)
	}
	back, err := DecodeEpoch(got)
	if err != nil || len(back.Accepted) != 1 || len(back.Accepted[0].Traces[0]) != 3 {
		t.Fatalf("golden did not decode: %+v, %v", back, err)
	}
}

// TestDeltaEncodingStable pins exact bytes for a delta whose prediction
// window holds one reference of each kind, as the worker's send site
// converts it: a corpus entry by publish-order index, the delta's own local
// by 1 + its index in Locals, and a local that lost an earlier merge as the
// dead reference 0. Resolving the decoded window restores every text but
// the dead one.
func TestDeltaEncodingStable(t *testing.T) {
	preds := []fuzzer.PredState{
		{Text: "cd", Pending: true, Targets: []kernel.BlockID{5}},
		{Text: "ab", Local: true, Slots: []prog.GlobalSlot{{Call: 1, Slot: 2}}},
		{Text: "lost", Local: true, Pending: true, Targets: []kernel.BlockID{1}},
	}
	delta := fuzzer.VMDelta{
		VM:     2,
		Locals: []fuzzer.Local{{Text: "ab", Traces: [][]kernel.BlockID{{2}}}},
		State:  fuzzer.VMState{VM: 2, Preds: append([]fuzzer.PredState(nil), preds...)},
	}
	var corp refIndex
	for _, text := range []string{"w", "x", "y", "cd"} {
		corp.add(text)
	}
	deltas := []fuzzer.VMDelta{delta}
	if err := corp.refDeltas(deltas); err != nil {
		t.Fatal(err)
	}
	got := AppendDelta(nil, DeltaMsg{Epoch: 1, Deltas: deltas})
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	want := bytes.Join([][]byte{
		le(1), le(1), // epoch, delta count
		le(2), le(0), // VM, crash base
		le(1), le(2), []byte("ab"), {1, 1, 4, 0}, // one local: text, traces {{+2}}, seeded=false
		le(0),                     // events
		le(2), make([]byte, 30*8), // state: VM, then 30 zero scalars
		le(0), le(3), // crashes, predictions
		{0, 3, 1, 1, 10}, le(0), // corpus ref 3, pending, targets {+5}, no slots
		{1, 1, 0, 0}, le(1), le(1), le(2), // local ref 1 (Locals[0]), slot {1,2}
		{1, 0, 1, 1, 2}, le(0), // dead ref, pending, targets {+1}
	}, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("delta layout changed:\ngot  %v\nwant %v", got, want)
	}
	m, err := DecodeDelta(got)
	if err != nil {
		t.Fatal(err)
	}
	if err := corp.resolveDeltas(m.Deltas); err != nil {
		t.Fatal(err)
	}
	preds[2].Text = "" // a dead reference resolves to no text
	if !reflect.DeepEqual(m.Deltas[0].State.Preds, preds) {
		t.Fatalf("resolved window:\ngot  %+v\nwant %+v", m.Deltas[0].State.Preds, preds)
	}
}

// TestDeltaCrashBase pins the crash-table elision field: it round-trips,
// and implausible decoded values are rejected.
func TestDeltaCrashBase(t *testing.T) {
	d := fixtureDelta()
	d.CrashBase = 3
	msg := DeltaMsg{Epoch: 4, Deltas: []fuzzer.VMDelta{d}}
	got, err := DecodeDelta(AppendDelta(nil, msg))
	if err != nil || got.Deltas[0].CrashBase != 3 {
		t.Fatalf("crash base round trip: %+v, %v", got, err)
	}

	var bad enc
	bad.i64(1)       // epoch
	bad.int(1)       // delta count
	bad.int(2)       // VM
	bad.u64(1 << 40) // crash base: implausible
	if _, err := DecodeDelta(bad.b); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("implausible crash base: %v", err)
	}
}

// TestRestoreCrashes pins the coordinator half of crash-table elision: the
// stored prefix is re-prepended, a base beyond the known table is a typed
// protocol error, and a base for an unknown VM is rejected.
func TestRestoreCrashes(t *testing.T) {
	full := fixtureVMState()
	full.Crashes = []fuzzer.CrashState{
		{Title: "KASAN: a", ProgText: "p1"},
		{Title: "KASAN: b", ProgText: "p2"},
		{Title: "KASAN: c", ProgText: "p3"},
	}
	states := []fuzzer.VMState{{}, {}, full}

	trimmed := full
	trimmed.Crashes = []fuzzer.CrashState{{Title: "KASAN: d", ProgText: "p4"}}
	m := DeltaMsg{Deltas: []fuzzer.VMDelta{{VM: 2, CrashBase: 3, State: trimmed}}}
	if err := restoreCrashes(states, &m); err != nil {
		t.Fatal(err)
	}
	got := m.Deltas[0].State.Crashes
	if len(got) != 4 || got[0].Title != "KASAN: a" || got[3].Title != "KASAN: d" {
		t.Fatalf("rebuilt table: %+v", got)
	}
	if m.Deltas[0].CrashBase != 0 {
		t.Fatal("crash base not cleared after reconstruction")
	}

	over := DeltaMsg{Deltas: []fuzzer.VMDelta{{VM: 2, CrashBase: 4}}}
	if err := restoreCrashes(states, &over); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("base beyond known table: %v", err)
	}
	badVM := DeltaMsg{Deltas: []fuzzer.VMDelta{{VM: 9, CrashBase: 1}}}
	if err := restoreCrashes(states, &badVM); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("base for unknown VM: %v", err)
	}
}

// TestHelloEncodingStable pins the handshake: Hello and the WireMsg reply
// are one 8-byte word each, the one part of the protocol two releases must
// always agree on byte-for-byte. Both Hello forms protocol 2 sent — the
// 8-byte one and the 24-byte one advertising wire 2 and flate level 9 —
// and protocol 3's and 4's are refused by version, not misread.
func TestHelloEncodingStable(t *testing.T) {
	if got, want := EncodeHello(Hello{Proto: 5}), words(5); !bytes.Equal(got, want) {
		t.Fatalf("hello: got %v want %v", got, want)
	}
	if got, want := EncodeWireMsg(WireMsg{Level: 6}), words(6); !bytes.Equal(got, want) {
		t.Fatalf("wire msg: got %v want %v", got, want)
	}
	for _, old := range [][]byte{words(2), words(2, 2, 9), words(3), words(4)} {
		if _, err := DecodeHello(old); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("old hello %v: %v", old, err)
		}
	}
	if _, err := DecodeHello(words(5, 2, 9)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("hello with trailing words: %v", err)
	}
	if _, err := DecodeWireMsg(words(maxFlateLevel + 1)); !errors.Is(err, ErrBadMessage) {
		t.Fatal("out-of-range flate level accepted")
	}
}

// TestFramerCompressedRoundTrip pins the compressed frame structure: the
// type byte carries frameCompressed, the wire frame is strictly smaller
// than the raw one, the payload survives the round trip, and both ends'
// byte accounting agrees.
func TestFramerCompressedRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("snowplow wire"), 512)
	var tx, rx framer
	tx.level = 6
	var buf bytes.Buffer
	n, err := tx.writeFrame(&buf, frameDelta, payload)
	if err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[4] != frameDelta|frameCompressed {
		t.Fatalf("frame type 0x%02x, want compressed delta", raw[4])
	}
	if n != len(raw) || n >= len(payload)+wireFrameHeader {
		t.Fatalf("compressed frame is %d bytes for a %d-byte payload", n, len(payload))
	}
	typ, got, wireN, err := rx.readFrame(&buf)
	if err != nil || typ != frameDelta || wireN != n {
		t.Fatalf("readFrame: typ=0x%02x n=%d err=%v", typ, wireN, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload did not survive the compressed round trip")
	}
	if tx.txRaw != int64(len(payload)+wireFrameHeader) || tx.txWire != int64(n) {
		t.Fatalf("tx accounting: raw=%d wire=%d", tx.txRaw, tx.txWire)
	}
	if rx.rxRaw != tx.txRaw || rx.rxWire != tx.txWire {
		t.Fatalf("rx accounting diverged from tx: raw %d vs %d, wire %d vs %d",
			rx.rxRaw, tx.txRaw, rx.rxWire, tx.txWire)
	}
}

// TestFramerKeepsSmallFramesRaw pins the raw-passthrough case: payloads
// under the compression floor bypass the deflate stream entirely (on both
// ends — the routing rule is a pure function of the length), staying
// byte-compatible with an uncompressed peer.
func TestFramerKeepsSmallFramesRaw(t *testing.T) {
	for _, payload := range [][]byte{
		[]byte("tiny"), // under compressMinBytes
		nil,            // empty
	} {
		var tx framer
		tx.level = 6
		var buf bytes.Buffer
		if _, err := tx.writeFrame(&buf, frameDelta, payload); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if raw[4] != frameDelta {
			t.Fatalf("%d-byte payload was compressed (type 0x%02x)", len(payload), raw[4])
		}
		if !bytes.Equal(raw[wireFrameHeader:], payload) {
			t.Fatal("raw frame payload altered")
		}
	}
}

// TestFramerBombGuard crafts a compressed frame declaring a decompressed
// size over the payload cap: it must be rejected before any inflation.
func TestFramerBombGuard(t *testing.T) {
	comp := binary.AppendUvarint(nil, 1<<40)
	comp = appendFlate(comp, []byte("x"), 6)
	frame := make([]byte, 4, 5+len(comp))
	binary.BigEndian.PutUint32(frame, uint32(len(comp)))
	frame = append(frame, frameDelta|frameCompressed)
	frame = append(frame, comp...)
	var rx framer
	if _, _, _, err := rx.readFrame(bytes.NewReader(frame)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("decompression bomb: %v", err)
	}
	if cap(rx.dbuf) != 0 {
		t.Fatalf("bomb guard ran after allocating %d bytes", cap(rx.dbuf))
	}
}

// TestFramerCorruptFlateRejected corrupts a compressed frame's chunk and
// truncates one: a receiver must fail typed, never panic or hand back
// wrong bytes silently accepted as a frame.
func TestFramerCorruptFlateRejected(t *testing.T) {
	payload := bytes.Repeat([]byte("snowplow wire"), 512)
	var tx framer
	tx.level = 6
	var buf bytes.Buffer
	if _, err := tx.writeFrame(&buf, frameDelta, payload); err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), buf.Bytes()...)

	corrupt := append([]byte(nil), pristine...)
	corrupt[len(corrupt)/2] ^= 0xff
	var rx framer
	if _, _, _, err := rx.readFrame(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt flate stream decoded")
	}

	// A chunk truncated mid-stream cannot yield the declared bytes.
	var rx2 framer
	short := append([]byte(nil), pristine[:len(pristine)-8]...)
	binary.BigEndian.PutUint32(short, uint32(len(short)-wireFrameHeader))
	if _, _, _, err := rx2.readFrame(bytes.NewReader(short)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("truncated flate chunk: %v", err)
	}
}

// TestFramerStreamingWindow pins the streaming property the bandwidth win
// rests on: sending the same payload twice on one connection makes the
// second frame dramatically smaller than the first, because the second
// compresses against the window the first left behind. A fresh connection
// must also reject a frame that only makes sense mid-stream.
func TestFramerStreamingWindow(t *testing.T) {
	// Pseudorandom bytes: incompressible within one frame, so any shrink on
	// the repeat frame can only come from window back-references.
	payload := make([]byte, 8<<10)
	state := uint64(99)
	for i := range payload {
		state = state*6364136223846793005 + 1442695040888963407
		payload[i] = byte(state >> 56)
	}
	var tx, rx framer
	tx.level = 6
	var buf bytes.Buffer
	n1, err := tx.writeFrame(&buf, frameDelta, payload)
	if err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	n2, err := tx.writeFrame(&buf, frameDelta, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n2*4 > n1 {
		t.Fatalf("second identical frame is %dB vs %dB first: window not carrying", n2, n1)
	}
	wireAll := append([]byte(nil), buf.Bytes()...)
	r := bytes.NewReader(wireAll)
	for i := 0; i < 2; i++ {
		typ, got, _, err := rx.readFrame(r)
		if err != nil || typ != frameDelta || !bytes.Equal(got, payload) {
			t.Fatalf("frame %d: typ=0x%02x err=%v", i, typ, err)
		}
	}
	// Replaying only the second frame on a fresh receiver must fail: its
	// back-references point into a window the receiver never built.
	var fresh framer
	if _, _, _, err := fresh.readFrame(bytes.NewReader(wireAll[first:])); err == nil {
		t.Fatal("mid-stream frame decoded on a fresh connection")
	}
}

// TestModelMsgV2Guards covers the ModelMsg decode hardening: declared
// size over the cap, truncated compressed bytes, and a valid-but-
// non-canonical flate stream (stored blocks instead of blobFlateLevel).
func TestModelMsgV2Guards(t *testing.T) {
	model := bytes.Repeat([]byte{1, 2, 3, 4}, 256)
	good := AppendModelMsg(nil, ModelMsg{Version: 1, Model: model})
	if m, err := DecodeModelMsg(good); err != nil || !bytes.Equal(m.Model, model) {
		t.Fatalf("model round trip: %v", err)
	}

	var huge enc
	huge.i64(1)
	huge.uv(maxWireList + 1)
	if _, err := DecodeModelMsg(huge.b); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("model bomb: %v", err)
	}

	if _, err := DecodeModelMsg(good[:len(good)-4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated model: %v", err)
	}

	var stored enc
	stored.i64(1)
	stored.uv(uint64(len(model)))
	comp := appendFlate(nil, model, flate.NoCompression)
	stored.uv(uint64(len(comp)))
	stored.b = append(stored.b, comp...)
	if _, err := DecodeModelMsg(stored.b); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("non-canonical model compression: %v", err)
	}
}

// TestCheckpointBombGuard crafts a checkpoint declaring a body size over
// the cap, and one with a corrupt flate body: typed rejections, no huge
// allocation, no panic.
func TestCheckpointBombGuard(t *testing.T) {
	bomb := append([]byte(checkpointMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(bomb[4:], checkpointVersion)
	bomb = binary.AppendUvarint(bomb, maxCheckpointBody+1)
	bomb = appendFlate(bomb, []byte("x"), 6)
	if _, err := DecodeCheckpoint(bomb); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("checkpoint bomb: %v", err)
	}

	valid := (&Checkpoint{Spec: fixtureSpec(), Epoch: 1, JournalCap: 1, Cover: fixtureCover(0)}).Encode()
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-2] ^= 0x55 // inside the flate body
	if _, err := DecodeCheckpoint(corrupt); err == nil {
		t.Fatal("corrupt checkpoint body decoded")
	}
}

// Fuzz targets for the cluster codec and the checkpoint container: both
// decode bytes that cross trust boundaries (network frames, files that
// survived arbitrary crashes), so malformed input must produce a typed
// error — never a panic, out-of-memory allocation or silent acceptance of
// a non-canonical encoding. The frame layer gets its own case exercising
// the flate stage (compress∘decompress identity on the send path,
// bomb-guarded rejection of arbitrary bytes on the receive path).

package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
)

// FuzzClusterCodec drives every message decoder over arbitrary bytes. The
// first seed byte selects the message kind; accepted messages must
// re-encode byte-identically (the codec admits exactly one encoding per
// message).
func FuzzClusterCodec(f *testing.F) {
	f.Add(byte(1), AppendAssign(nil, Assign{Spec: fixtureSpec(), VMs: []int{0, 1}, States: []fuzzer.VMState{fixtureWireState()}}))
	f.Add(byte(2), AppendEpoch(nil, EpochMsg{Epoch: 3, Accepted: []fuzzer.Accepted{{VM: 1, Text: "p", Traces: [][]kernel.BlockID{{1}}}}}))
	f.Add(byte(3), AppendDelta(nil, DeltaMsg{Epoch: 3, Deltas: []fuzzer.VMDelta{fixtureDelta()}}))
	f.Add(byte(4), AppendRestore(nil, RestoreMsg{Epoch: 4, States: []fuzzer.VMState{fixtureWireState()}}))
	f.Add(byte(5), AppendFinal(nil, FinalMsg{States: []fuzzer.VMState{fixtureWireState()}}))
	f.Add(byte(7), AppendModelMsg(nil, ModelMsg{Version: 2, Model: bytes.Repeat([]byte{9, 8}, 300)}))
	// Empty messages and the model commit phase, which carries no model.
	f.Add(byte(1), AppendAssign(nil, Assign{}))
	f.Add(byte(2), AppendEpoch(nil, EpochMsg{}))
	f.Add(byte(3), AppendDelta(nil, DeltaMsg{}))
	f.Add(byte(4), AppendRestore(nil, RestoreMsg{}))
	f.Add(byte(5), AppendFinal(nil, FinalMsg{}))
	f.Add(byte(7), AppendModelMsg(nil, ModelMsg{Version: 2}))
	f.Add(byte(0), EncodeHello(Hello{Proto: protoVersion}))
	// Both Hello forms protocol 2 sent: the 8-byte legacy form and the
	// 24-byte form advertising wire 2 and flate level 9; and protocol 3's.
	f.Add(byte(0), words(2))
	f.Add(byte(0), words(2, 2, 9))
	f.Add(byte(0), words(3))
	f.Add(byte(6), EncodeErr(ErrMsg{Msg: "x"}))
	f.Add(byte(8), EncodeWireMsg(WireMsg{Level: 6}))
	f.Add(byte(3), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(byte(1), bytes.Repeat([]byte{0x01}, 64))
	f.Add(byte(9), bytes.Repeat([]byte("frame payload"), 64))
	bomb := binary.AppendUvarint(nil, 1<<40)
	f.Add(byte(9), appendFlate(bomb, bytes.Repeat([]byte{0}, 1024), 9))
	// Prediction references the codec accepts but no receiver can resolve
	// (a local past the delta's Locals, a corpus index past any corpus),
	// and one past the codec's own bound.
	for _, ref := range []int{9, maxWireList, maxWireList + 1} {
		d := fixtureDelta()
		d.State.Preds = []fuzzer.PredState{{Local: ref == 9, Ref: ref, Pending: true}}
		f.Add(byte(3), AppendDelta(nil, DeltaMsg{Epoch: 1, Deltas: []fuzzer.VMDelta{d}}))
	}

	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		switch kind % 10 {
		case 0:
			if m, err := DecodeHello(data); err == nil {
				requireSameBytes(t, data, EncodeHello(m))
			}
		case 1:
			if m, err := DecodeAssign(data); err == nil {
				requireSameBytes(t, data, AppendAssign(nil, m))
			}
		case 2:
			if m, err := DecodeEpoch(data); err == nil {
				requireSameBytes(t, data, AppendEpoch(nil, m))
			}
		case 3:
			if m, err := DecodeDelta(data); err == nil {
				requireSameBytes(t, data, AppendDelta(nil, m))
			}
		case 4:
			if m, err := DecodeRestore(data); err == nil {
				requireSameBytes(t, data, AppendRestore(nil, m))
			}
		case 5:
			if m, err := DecodeFinal(data); err == nil {
				requireSameBytes(t, data, AppendFinal(nil, m))
			}
		case 6:
			if m, err := DecodeErr(data); err == nil {
				requireSameBytes(t, data, EncodeErr(m))
			}
		case 7:
			if m, err := DecodeModelMsg(data); err == nil {
				requireSameBytes(t, data, AppendModelMsg(nil, m))
			}
		case 8:
			if m, err := DecodeWireMsg(data); err == nil {
				requireSameBytes(t, data, EncodeWireMsg(m))
			}
		case 9:
			// Frame layer. Send path: any payload must survive a
			// compressing framer round trip intact. Receive path: the same
			// bytes presented as a hostile compressed frame must inflate
			// cleanly or fail typed — never panic or over-allocate (the
			// declared-size cap bounds the inflate buffer).
			var tx, rx framer
			tx.level = 6
			var buf bytes.Buffer
			if _, err := tx.writeFrame(&buf, frameDelta, data); err != nil {
				t.Fatalf("writeFrame: %v", err)
			}
			typ, got, _, err := rx.readFrame(&buf)
			if err != nil || typ != frameDelta || !bytes.Equal(got, data) {
				t.Fatalf("frame round trip: typ=0x%02x err=%v", typ, err)
			}
			if _, err := rx.inflateFrame(data); err == nil {
				if cap(rx.dbuf) > maxFramePayload {
					t.Fatalf("inflate buffer grew to %d", cap(rx.dbuf))
				}
			}
		}
	})
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint loader:
// corrupt checkpoints must be rejected with a typed error, and anything
// accepted must re-encode byte-identically.
func FuzzCheckpointDecode(f *testing.F) {
	ck := &Checkpoint{
		Spec:       fixtureSpec(),
		Epoch:      2,
		Seq:        5,
		NextSample: 100,
		Entries:    []fuzzer.Accepted{{VM: -1, Seeded: true, Text: "prog-a", Traces: [][]kernel.BlockID{{1, 2}}}},
		TotalEdges: 1,
		Cover:      fixtureCover(1),
		States:     []fuzzer.VMState{fixtureCanonicalState()},
		JournalCap: 64,
	}
	valid := ck.Encode()
	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("SPCK"))
	f.Add([]byte("SPCK\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(valid[:len(valid)/2])
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)-3] ^= 0x40
	f.Add(corrupted)
	// A header declaring a body over the cap.
	bomb := append([]byte(checkpointMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(bomb[4:], checkpointVersion)
	bomb = binary.AppendUvarint(bomb, maxCheckpointBody+1)
	f.Add(appendFlate(bomb, []byte("x"), 9))
	// v3 and v4 files (the previous formats), refused by version.
	for _, v := range []uint64{3, 4} {
		old := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(old[4:], v)
		f.Add(old)
	}
	// Prediction references past Entries, and a local one.
	for _, ps := range []fuzzer.PredState{{Ref: 1, Pending: true}, {Ref: maxWireList}, {Local: true, Ref: 1}} {
		f.Add(checkpointWithPred(ck, ps))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		requireSameBytes(t, data, ck.Encode())
	})
}

// checkpointWithPred encodes ck with its first state's prediction window
// replaced by ps, already in reference form — bypassing Encode, which only
// writes references it resolved itself.
func checkpointWithPred(ck *Checkpoint, ps fuzzer.PredState) []byte {
	states := append([]fuzzer.VMState(nil), ck.States...)
	states[0].Preds = []fuzzer.PredState{ps}
	var body enc
	ck.appendBody(&body, states)
	return sealCheckpoint(body.b)
}

func requireSameBytes(t *testing.T, in, out []byte) {
	t.Helper()
	if !bytes.Equal(in, out) {
		t.Fatalf("accepted message is not canonical: decode/encode changed %d bytes to %d", len(in), len(out))
	}
}

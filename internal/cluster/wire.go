// Cluster wire protocol: hand-rolled little-endian messages carried in the
// framing of internal/serve (one frame per message, a frame type byte per
// message kind). The codec is deliberately boring — fixed-width scalars,
// length-prefixed strings and slices, every length bounds-checked against
// the remaining payload before allocation — so decoding untrusted bytes can
// reject with a typed error but never panic or balloon memory
// (FuzzClusterCodec enforces this).
//
// Block traces are canonical varint counts and zigzag-varint deltas between
// consecutive block IDs; ModelMsg model bytes are flate-wrapped; epoch
// deltas elide the append-only crash-table prefix the receiver already
// holds (VMDelta.CrashBase); and each prediction names its base entry by
// reference instead of by program text (PredState.Ref, converted at the
// send and receive sites in refs.go, so the codec itself stays
// context-free). Every message has exactly one byte form: varints must be
// minimal, and compressed model blobs must match a re-compression of their
// contents.

package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/prog"
)

// protoVersion is the cluster protocol version, checked at Hello. Version 2
// added the online-learning spec fields and the two-phase model hot-swap
// push (frameModelPrep/frameModelCommit); version 3 made the codec above
// the only wire form and the handshake two fixed 8-byte messages; version 4
// dropped the degraded-serving fields from the spec and the VM counters;
// version 5 dropped the spec's generate probability, mutations per
// prediction, query-target cap and minimize flag (now fuzzer constants).
const protoVersion = 5

// The cluster protocol's frame types, spanning 0x10–0x1b (disjoint from
// the inference protocol's 0x0x range, so a cross-wired connection fails
// fast). A frame whose type byte has frameCompressed (0x80) set carries a
// flate-compressed payload; the low bits still name one of these types.
const (
	frameHello       byte = 0x10 // worker -> coordinator: protocol version
	frameAssign      byte = 0x11 // coordinator -> worker: spec + VM shard
	frameAck         byte = 0x12 // worker -> coordinator: assignment applied
	frameEpoch       byte = 0x13 // coordinator -> worker: barrier + accepted entries
	frameDelta       byte = 0x14 // worker -> coordinator: epoch deltas
	frameRestore     byte = 0x15 // coordinator -> worker: adopt VMs mid-campaign
	frameDone        byte = 0x16 // coordinator -> worker: campaign over, drain
	frameFinal       byte = 0x17 // worker -> coordinator: drained VM states
	frameErr         byte = 0x18 // either direction: fatal error
	frameModelPrep   byte = 0x19 // coordinator -> worker: drain + stage pushed model
	frameModelCommit byte = 0x1a // coordinator -> worker: swap the staged model in
	frameWire        byte = 0x1b // coordinator -> worker: connection flate level
)

// Decode errors. All decoders return one of these (wrapped with context);
// they never panic on corrupt input.
var (
	ErrTruncated  = errors.New("cluster: truncated message")
	ErrBadMessage = errors.New("cluster: malformed message")
	ErrBadVersion = errors.New("cluster: protocol version mismatch")
)

// maxWireList bounds every decoded slice and string length, independent of
// the frame size limit, so a single corrupt length cannot demand a huge
// allocation.
const maxWireList = 1 << 20

// maxFlateLevel is the highest per-frame flate level (Config.Compress).
const maxFlateLevel = 9

// Hello is the worker's opening handshake: one 8-byte protocol version.
type Hello struct {
	Proto uint32
}

// WireMsg is the coordinator's reply to Hello: the per-frame flate level
// (Config.Compress, 0 = uncompressed) both ends apply to every later frame
// on the connection, in one 8-byte word.
type WireMsg struct {
	Level uint32
}

// Assign hands a worker its campaign spec and VM shard. For a resumed
// campaign Snapshot carries the checkpoint's corpus (in publish order) to
// rebuild the replica; States are the canonical VM states to restore.
type Assign struct {
	Spec       CampaignSpec
	VMs        []int
	Snapshot   []fuzzer.Accepted
	States     []fuzzer.VMState
	StartEpoch int64
}

// EpochMsg opens one barrier-to-barrier slice: workers apply the previous
// merge's accepted entries, then fuzz epoch Epoch.
type EpochMsg struct {
	Epoch    int64
	Accepted []fuzzer.Accepted
}

// DeltaMsg returns a worker's epoch deltas (ascending VM order).
type DeltaMsg struct {
	Epoch  int64
	Deltas []fuzzer.VMDelta
}

// RestoreMsg reassigns VMs from a lost worker: the receiver restores the
// canonical states and re-runs epoch Epoch for exactly those VMs.
type RestoreMsg struct {
	Epoch  int64
	States []fuzzer.VMState
}

// FinalMsg carries a worker's end-of-campaign drained VM states. Workers
// send them without prediction windows: the final stats fold reads only
// counters, crashes, epochs and cost.
type FinalMsg struct {
	States []fuzzer.VMState
}

// ModelMsg carries one phase of the two-phase model hot-swap push. The prep
// phase ships the versioned canonical checkpoint bytes (the worker drains
// its shard's in-flight predictions and stages the loaded model); the commit
// phase re-sends only the version (the worker swaps the staged model into
// its serving surface). The barrier between the phases — every worker acks
// prep before any receives commit — guarantees no query is ever answered by
// a newer generation than its submission epoch's, even when several
// in-process workers share one multi-tenant server.
type ModelMsg struct {
	Version int64
	Model   []byte // nil in the commit phase
}

// ErrMsg reports a fatal error to the peer.
type ErrMsg struct {
	Msg string
}

// --- encoder ---

type enc struct {
	b []byte
}

func (e *enc) u8(v byte)   { e.b = append(e.b, v) }
func (e *enc) uv(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) sv(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) int(v int)     { e.u64(uint64(int64(v))) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string)  { e.int(len(s)); e.b = append(e.b, s...) }
func (e *enc) blob(b []byte) { e.int(len(b)); e.b = append(e.b, b...) }
func (e *enc) state4(s [4]uint64) {
	for _, v := range s {
		e.u64(v)
	}
}
func (e *enc) blocks(tr []kernel.BlockID) {
	// Varint count, then zigzag-varint deltas between consecutive IDs:
	// traces walk nearby basic blocks, so deltas are small and most blocks
	// cost one byte instead of eight.
	e.uv(uint64(len(tr)))
	prev := int64(0)
	for _, b := range tr {
		e.sv(int64(b) - prev)
		prev = int64(b)
	}
}
func (e *enc) traces(tr [][]kernel.BlockID) {
	e.uv(uint64(len(tr)))
	for _, t := range tr {
		e.blocks(t)
	}
}
func (e *enc) event(ev obs.Event) {
	e.u64(ev.Seq)
	e.str(ev.Kind)
	e.int(ev.VM)
	e.i64(ev.Epoch)
	e.i64(ev.Cost)
	e.i64(ev.Value)
	e.str(ev.Detail)
}
func (e *enc) events(evs []obs.Event) {
	e.int(len(evs))
	for _, ev := range evs {
		e.event(ev)
	}
}
func (e *enc) accepted(a fuzzer.Accepted) {
	e.int(a.VM)
	e.flag(a.Seeded)
	e.str(a.Text)
	e.traces(a.Traces)
}
func (e *enc) acceptedList(as []fuzzer.Accepted) {
	e.int(len(as))
	for _, a := range as {
		e.accepted(a)
	}
}
func (e *enc) vmState(st fuzzer.VMState) {
	e.int(st.VM)
	e.state4(st.RNG)
	e.state4(st.Flaky)
	e.i64(st.Execs)
	e.i64(st.BlocksRun)
	e.i64(st.Cost)
	e.i64(st.Budget)
	e.i64(st.Epochs)
	e.i64(st.Reconciled)
	e.int(st.Phantom)
	e.i64(st.QueueWaitNs)
	c := st.Counters
	e.i64(c.Executions)
	e.i64(c.PMMQueries)
	e.i64(c.PMMPredictions)
	e.i64(c.PMMFailed)
	e.i64(c.PMMShed)
	e.i64(c.PMMInvalidSlots)
	y := c.Yield
	e.i64(y.GuidedExecs)
	e.i64(y.GuidedEdges)
	e.i64(y.RandArgExecs)
	e.i64(y.RandArgEdges)
	e.i64(y.OtherMutExecs)
	e.i64(y.OtherMutEdges)
	e.i64(y.GenerateExecs)
	e.i64(y.GenerateEdges)
	e.int(len(st.Crashes))
	for _, cr := range st.Crashes {
		e.str(cr.Title)
		e.str(cr.Category)
		e.str(cr.Detector)
		e.str(cr.KnownSince)
		e.flag(cr.Flaky)
		e.str(cr.ProgText)
		e.i64(cr.Cost)
	}
	e.int(len(st.Preds))
	for _, ps := range st.Preds {
		// The base entry travels by reference (PredState.Ref); the send
		// site has already converted it (see refs.go).
		e.flag(ps.Local)
		e.uv(uint64(ps.Ref))
		e.flag(ps.Pending)
		e.blocks(ps.Targets)
		e.int(len(ps.Slots))
		for _, gs := range ps.Slots {
			e.int(gs.Call)
			e.int(gs.Slot)
		}
	}
}
func (e *enc) vmStates(sts []fuzzer.VMState) {
	e.int(len(sts))
	for _, st := range sts {
		e.vmState(st)
	}
}
func (e *enc) delta(d fuzzer.VMDelta) {
	e.int(d.VM)
	// The crash-table prefix the coordinator already holds is elided; only
	// its length travels.
	e.int(d.CrashBase)
	e.int(len(d.Locals))
	for _, l := range d.Locals {
		e.str(l.Text)
		e.traces(l.Traces)
		e.flag(l.Seeded)
	}
	e.events(d.Events)
	e.vmState(d.State)
}
func (e *enc) spec(sp CampaignSpec) {
	e.u8(sp.Mode)
	e.str(sp.KernelVersion)
	e.u64(sp.Seed)
	e.i64(sp.Budget)
	e.int(sp.TotalVMs)
	e.i64(sp.SyncEvery)
	e.i64(sp.SampleEvery)
	e.f64(sp.FallbackProb)
	e.flag(sp.Journal)
	e.flag(sp.OnlineEnabled)
	e.i64(sp.OnlineEvery)
	e.i64(sp.OnlineLag)
	e.int(sp.OnlineMinCorpus)
	e.int(sp.OnlineMutationsPerBase)
	e.int(sp.OnlineTrainEpochs)
	e.int(sp.OnlineTrainBatch)
	e.int(len(sp.SeedProgs))
	for _, s := range sp.SeedProgs {
		e.str(s)
	}
	e.blob(sp.Model)
}

// --- decoder ---

type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail(ErrTruncated)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}
func (d *dec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *dec) flag() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: bad bool tag", ErrBadMessage))
		return false
	}
}
func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) int() int {
	v := d.i64()
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("%w: integer out of range", ErrBadMessage))
		return 0
	}
	return int(v)
}

// uv reads a canonical uvarint: minimal-length encodings only, so every
// value keeps exactly one wire form.
func (d *dec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n == 0 {
		d.fail(ErrTruncated)
		return 0
	}
	if n < 0 {
		d.fail(fmt.Errorf("%w: varint overflow", ErrBadMessage))
		return 0
	}
	if n > 1 && d.b[d.off+n-1] == 0 {
		d.fail(fmt.Errorf("%w: non-minimal varint", ErrBadMessage))
		return 0
	}
	d.off += n
	return v
}

// sv reads a canonical zigzag varint.
func (d *dec) sv() int64 {
	v := d.uv()
	return int64(v>>1) ^ -int64(v&1)
}

// uvLen reads a varint slice length with the same bounds policy as
// listLen: capped by maxWireList and by the remaining payload (items are
// at least one byte each).
func (d *dec) uvLen() int {
	v := d.uv()
	if d.err != nil {
		return 0
	}
	if v > maxWireList || v > uint64(len(d.b)-d.off) {
		d.fail(fmt.Errorf("%w: implausible length %d", ErrBadMessage, v))
		return 0
	}
	return int(v)
}

// listLen reads a slice/string length, rejecting negative values and
// anything beyond both the wire bound and the remaining payload (lengths
// are counts of at-least-one-byte items, so a valid length never exceeds
// what is left to read).
func (d *dec) listLen() int {
	n := d.int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > maxWireList || n > len(d.b)-d.off {
		d.fail(fmt.Errorf("%w: implausible length %d", ErrBadMessage, n))
		return 0
	}
	return n
}
func (d *dec) str() string { return string(d.take(d.listLen())) }
func (d *dec) blob() []byte {
	b := d.take(d.listLen())
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
func (d *dec) state4() [4]uint64 {
	var s [4]uint64
	for i := range s {
		s[i] = d.u64()
	}
	return s
}
func (d *dec) blocks() []kernel.BlockID {
	n := d.uvLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]kernel.BlockID, n)
	prev := int64(0)
	for i := range out {
		prev += d.sv()
		out[i] = kernel.BlockID(prev)
	}
	if d.err != nil {
		return nil
	}
	return out
}
func (d *dec) traces() [][]kernel.BlockID {
	n := d.uvLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([][]kernel.BlockID, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		out = append(out, d.blocks())
		if d.err != nil {
			return nil
		}
	}
	return out
}
func (d *dec) event() obs.Event {
	return obs.Event{
		Seq:    d.u64(),
		Kind:   d.str(),
		VM:     d.int(),
		Epoch:  d.i64(),
		Cost:   d.i64(),
		Value:  d.i64(),
		Detail: d.str(),
	}
}
func (d *dec) events() []obs.Event {
	n := d.listLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]obs.Event, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		out = append(out, d.event())
		if d.err != nil {
			return nil
		}
	}
	return out
}
func (d *dec) accepted() fuzzer.Accepted {
	return fuzzer.Accepted{
		VM:     d.int(),
		Seeded: d.flag(),
		Text:   d.str(),
		Traces: d.traces(),
	}
}
func (d *dec) acceptedList() []fuzzer.Accepted {
	n := d.listLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]fuzzer.Accepted, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		out = append(out, d.accepted())
		if d.err != nil {
			return nil
		}
	}
	return out
}
func (d *dec) vmState() fuzzer.VMState {
	st := fuzzer.VMState{
		VM:          d.int(),
		RNG:         d.state4(),
		Flaky:       d.state4(),
		Execs:       d.i64(),
		BlocksRun:   d.i64(),
		Cost:        d.i64(),
		Budget:      d.i64(),
		Epochs:      d.i64(),
		Reconciled:  d.i64(),
		Phantom:     d.int(),
		QueueWaitNs: d.i64(),
	}
	c := &st.Counters
	c.Executions = d.i64()
	c.PMMQueries = d.i64()
	c.PMMPredictions = d.i64()
	c.PMMFailed = d.i64()
	c.PMMShed = d.i64()
	c.PMMInvalidSlots = d.i64()
	y := &c.Yield
	y.GuidedExecs = d.i64()
	y.GuidedEdges = d.i64()
	y.RandArgExecs = d.i64()
	y.RandArgEdges = d.i64()
	y.OtherMutExecs = d.i64()
	y.OtherMutEdges = d.i64()
	y.GenerateExecs = d.i64()
	y.GenerateEdges = d.i64()
	ncr := d.listLen()
	for i := 0; i < ncr && d.err == nil; i++ {
		st.Crashes = append(st.Crashes, fuzzer.CrashState{
			Title:      d.str(),
			Category:   d.str(),
			Detector:   d.str(),
			KnownSince: d.str(),
			Flaky:      d.flag(),
			ProgText:   d.str(),
			Cost:       d.i64(),
		})
	}
	nps := d.listLen()
	for i := 0; i < nps && d.err == nil; i++ {
		ps := fuzzer.PredState{Local: d.flag()}
		if ref := d.uv(); ref > maxWireList {
			d.fail(fmt.Errorf("%w: implausible prediction reference %d", ErrBadMessage, ref))
		} else {
			ps.Ref = int(ref)
		}
		ps.Pending = d.flag()
		ps.Targets = d.blocks()
		nsl := d.listLen()
		for j := 0; j < nsl && d.err == nil; j++ {
			ps.Slots = append(ps.Slots, prog.GlobalSlot{Call: d.int(), Slot: d.int()})
		}
		st.Preds = append(st.Preds, ps)
	}
	return st
}
func (d *dec) vmStates() []fuzzer.VMState {
	n := d.listLen()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]fuzzer.VMState, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		out = append(out, d.vmState())
		if d.err != nil {
			return nil
		}
	}
	return out
}
func (d *dec) delta() fuzzer.VMDelta {
	dl := fuzzer.VMDelta{VM: d.int(), CrashBase: d.int()}
	if dl.CrashBase < 0 || dl.CrashBase > maxWireList {
		d.fail(fmt.Errorf("%w: implausible crash base %d", ErrBadMessage, dl.CrashBase))
		return dl
	}
	nl := d.listLen()
	for i := 0; i < nl && d.err == nil; i++ {
		dl.Locals = append(dl.Locals, fuzzer.Local{
			Text:   d.str(),
			Traces: d.traces(),
			Seeded: d.flag(),
		})
	}
	dl.Events = d.events()
	dl.State = d.vmState()
	return dl
}
func (d *dec) spec() CampaignSpec {
	sp := CampaignSpec{
		Mode:                   d.u8(),
		KernelVersion:          d.str(),
		Seed:                   d.u64(),
		Budget:                 d.i64(),
		TotalVMs:               d.int(),
		SyncEvery:              d.i64(),
		SampleEvery:            d.i64(),
		FallbackProb:           d.f64(),
		Journal:                d.flag(),
		OnlineEnabled:          d.flag(),
		OnlineEvery:            d.i64(),
		OnlineLag:              d.i64(),
		OnlineMinCorpus:        d.int(),
		OnlineMutationsPerBase: d.int(),
		OnlineTrainEpochs:      d.int(),
		OnlineTrainBatch:       d.int(),
	}
	if sp.Mode > 1 {
		d.fail(fmt.Errorf("%w: unknown mode %d", ErrBadMessage, sp.Mode))
	}
	if sp.TotalVMs < 0 || sp.TotalVMs > 1<<16 {
		d.fail(fmt.Errorf("%w: implausible VM count %d", ErrBadMessage, sp.TotalVMs))
	}
	nsp := d.listLen()
	for i := 0; i < nsp && d.err == nil; i++ {
		sp.SeedProgs = append(sp.SeedProgs, d.str())
	}
	sp.Model = d.blob()
	return sp
}

// finish fails if the message has trailing garbage, so every encoded form
// has exactly one valid byte representation.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(d.b)-d.off)
	}
	return nil
}

// --- message encode/decode ---

// EncodeHello serializes a Hello message.
func EncodeHello(h Hello) []byte {
	var e enc
	e.u64(uint64(h.Proto))
	return e.b
}

// DecodeHello parses a Hello message. Every Hello any release has sent
// opens with the protocol version, so a peer of another version fails with
// ErrBadVersion whatever else its Hello carries.
func DecodeHello(b []byte) (Hello, error) {
	d := dec{b: b}
	v := d.u64()
	if d.err == nil && v != protoVersion {
		return Hello{}, fmt.Errorf("%w: protocol version %d, want %d", ErrBadVersion, v, protoVersion)
	}
	return Hello{Proto: uint32(v)}, d.finish()
}

// EncodeWireMsg serializes a WireMsg.
func EncodeWireMsg(m WireMsg) []byte {
	var e enc
	e.u64(uint64(m.Level))
	return e.b
}

// DecodeWireMsg parses a WireMsg, rejecting out-of-range flate levels.
func DecodeWireMsg(b []byte) (WireMsg, error) {
	d := dec{b: b}
	lvl := d.u64()
	if d.err == nil && lvl > maxFlateLevel {
		d.fail(fmt.Errorf("%w: implausible flate level %d", ErrBadMessage, lvl))
	}
	return WireMsg{Level: uint32(lvl)}, d.finish()
}

// AppendAssign appends a's encoding to dst.
func AppendAssign(dst []byte, a Assign) []byte {
	e := enc{b: dst}
	e.spec(a.Spec)
	e.int(len(a.VMs))
	for _, vm := range a.VMs {
		e.int(vm)
	}
	e.acceptedList(a.Snapshot)
	e.vmStates(a.States)
	e.i64(a.StartEpoch)
	return e.b
}

// DecodeAssign parses an Assign message.
func DecodeAssign(b []byte) (Assign, error) {
	d := dec{b: b}
	a := Assign{Spec: d.spec()}
	n := d.listLen()
	for i := 0; i < n && d.err == nil; i++ {
		a.VMs = append(a.VMs, d.int())
	}
	a.Snapshot = d.acceptedList()
	a.States = d.vmStates()
	a.StartEpoch = d.i64()
	return a, d.finish()
}

// AppendEpoch appends m's encoding to dst.
func AppendEpoch(dst []byte, m EpochMsg) []byte {
	e := enc{b: dst}
	e.i64(m.Epoch)
	e.acceptedList(m.Accepted)
	return e.b
}

// DecodeEpoch parses an EpochMsg.
func DecodeEpoch(b []byte) (EpochMsg, error) {
	d := dec{b: b}
	m := EpochMsg{Epoch: d.i64(), Accepted: d.acceptedList()}
	return m, d.finish()
}

// AppendDelta appends m's encoding to dst. The per-epoch hot path passes a
// reused buffer here so steady-state encoding does not allocate.
func AppendDelta(dst []byte, m DeltaMsg) []byte {
	e := enc{b: dst}
	e.i64(m.Epoch)
	e.int(len(m.Deltas))
	for _, dl := range m.Deltas {
		e.delta(dl)
	}
	return e.b
}

// DecodeDelta parses a DeltaMsg.
func DecodeDelta(b []byte) (DeltaMsg, error) {
	d := dec{b: b}
	m := DeltaMsg{Epoch: d.i64()}
	n := d.listLen()
	for i := 0; i < n && d.err == nil; i++ {
		m.Deltas = append(m.Deltas, d.delta())
	}
	return m, d.finish()
}

// AppendRestore appends m's encoding to dst.
func AppendRestore(dst []byte, m RestoreMsg) []byte {
	e := enc{b: dst}
	e.i64(m.Epoch)
	e.vmStates(m.States)
	return e.b
}

// DecodeRestore parses a RestoreMsg.
func DecodeRestore(b []byte) (RestoreMsg, error) {
	d := dec{b: b}
	m := RestoreMsg{Epoch: d.i64(), States: d.vmStates()}
	return m, d.finish()
}

// AppendFinal appends m's encoding to dst.
func AppendFinal(dst []byte, m FinalMsg) []byte {
	e := enc{b: dst}
	e.vmStates(m.States)
	return e.b
}

// DecodeFinal parses a FinalMsg.
func DecodeFinal(b []byte) (FinalMsg, error) {
	d := dec{b: b}
	m := FinalMsg{States: d.vmStates()}
	return m, d.finish()
}

// AppendModelMsg appends m's encoding to dst. The model bytes are
// flate-wrapped (uvarint raw length + uvarint compressed length + deflate
// stream) — model pushes repeat quantized tables that compress well, and
// they fan out to the whole fleet.
func AppendModelMsg(dst []byte, m ModelMsg) []byte {
	e := enc{b: dst}
	e.i64(m.Version)
	e.uv(uint64(len(m.Model)))
	if len(m.Model) > 0 {
		comp := appendFlate(nil, m.Model, blobFlateLevel)
		e.uv(uint64(len(comp)))
		e.b = append(e.b, comp...)
	}
	return e.b
}

// DecodeModelMsg parses a ModelMsg. It guards against decompression bombs
// (declared raw length capped at maxWireList, checked before inflating) and
// enforces canonical compressed bytes: the decoded model must re-compress
// to exactly the wire bytes, preserving the one-encoding-per-message
// property for fuzzing and digests.
func DecodeModelMsg(b []byte) (ModelMsg, error) {
	d := dec{b: b}
	m := ModelMsg{Version: d.i64()}
	if rawLen := d.uv(); d.err == nil && rawLen > 0 {
		if rawLen > maxWireList {
			d.fail(fmt.Errorf("%w: declared model size %d exceeds cap %d", ErrBadMessage, rawLen, maxWireList))
		} else {
			compLen := d.uv()
			if d.err == nil && compLen > uint64(len(d.b)-d.off) {
				d.fail(ErrTruncated)
			}
			comp := d.take(int(compLen))
			if d.err == nil {
				model, err := inflateExact(comp, int(rawLen))
				if err != nil {
					d.fail(err)
				} else if !bytes.Equal(appendFlate(nil, model, blobFlateLevel), comp) {
					d.fail(fmt.Errorf("%w: non-canonical model compression", ErrBadMessage))
				} else {
					m.Model = model
				}
			}
		}
	}
	if m.Version <= 0 && d.err == nil {
		d.fail(fmt.Errorf("%w: model push version %d", ErrBadMessage, m.Version))
	}
	return m, d.finish()
}

// EncodeErr serializes an ErrMsg.
func EncodeErr(m ErrMsg) []byte {
	var e enc
	e.str(m.Msg)
	return e.b
}

// DecodeErr parses an ErrMsg.
func DecodeErr(b []byte) (ErrMsg, error) {
	d := dec{b: b}
	m := ErrMsg{Msg: d.str()}
	return m, d.finish()
}

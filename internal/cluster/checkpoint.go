// Checkpoint format: the coordinator's complete barrier state in a
// versioned binary file, written atomically every CheckpointEvery epochs. A
// checkpoint taken after the merge of epoch E contains everything the next
// barrier depends on — spec, corpus in publish order, canonical VM states,
// journal ring, sampling cursor — so a resumed campaign, resharded onto any
// worker count, continues bit-identically from epoch E+1. The format reuses
// the wire codec and inherits its decode hardening (FuzzCheckpointDecode
// exercises it on corrupt input): the body after the magic and version is
// flate-compressed at blobFlateLevel (with the declared size bomb-guarded
// before inflating), carries the corpus cover in the sparse bitmap encoding,
// and names each prediction's base entry by its index in Entries
// (refs.go). Files of earlier versions are refused.

package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/trace"
)

// checkpointMagic opens every checkpoint file, followed by a version u32.
const checkpointMagic = "SPCK"

// checkpointVersion is the checkpoint format version, the only one
// DecodeCheckpoint accepts (version 4 began naming prediction bases by
// reference into Entries; version 5 dropped the degraded-serving fields
// from the spec and the VM counters; version 6 dropped the spec fields
// protocol 5 dropped).
const checkpointVersion = 6

// maxCheckpointBody caps the declared decompressed size of a checkpoint
// body, rejected before inflating (the decompression-bomb guard for the
// persistence format, the counterpart of the frame payload cap).
const maxCheckpointBody = 1 << 28

// Checkpoint is the coordinator's full barrier state.
type Checkpoint struct {
	Spec  CampaignSpec
	Epoch int64  // last merged epoch
	Seq   uint64 // reconciler merge sequence cursor
	// NextSample is the cost of the next coverage-series sample.
	NextSample int64
	Series     []fuzzer.Point
	// Entries is the authoritative corpus in publish order (VM -1: snapshot
	// entries belong to no shard).
	Entries []fuzzer.Accepted
	// TotalEdges is the corpus's edge count at capture, verified against
	// the rebuilt corpus on resume (an integrity check on Entries).
	TotalEdges int64
	// Cover is the corpus's total edge cover at capture in the canonical
	// sparse bitmap encoding (trace.AppendSparse) — a stronger integrity
	// check than the bare count: resume re-derives the cover from Entries
	// and requires byte equality.
	Cover []byte
	// States are the canonical VM states for every VM, ascending. Their
	// predictions carry Text in memory and a reference into Entries in the
	// file.
	States []fuzzer.VMState
	// PendingSeed holds seed-pass journal events not yet flushed into the
	// journal (see coordinator.pendingSeed); SeedFlushed records whether
	// the flush already happened.
	PendingSeed []obs.Event
	SeedFlushed bool
	// Journal is the ring's retained event window with assigned Seqs, plus
	// the ring cursor state to continue numbering exactly.
	JournalCap     int
	Journal        []obs.Event
	JournalNext    uint64
	JournalDropped uint64
	// Online continual-learning state (all zero for frozen-model
	// campaigns). OnlineApplied is the last barrier-resolved checkpoint
	// generation (applied or skipped) — the next kickoff hands out
	// OnlineApplied+1 unless a retrain is pending. OnlineModelVersion is
	// the serving generation (the last accepted swap; Spec.Model holds its
	// canonical bytes). OnlineRetrains/Swaps/Skips are the lifetime
	// counters. OnlinePending* describe a retrain in flight at capture —
	// the version being trained, its kickoff epoch, and the corpus
	// publish-order prefix length its harvest snapshot saw (the corpus only
	// grows, so the prefix reconstructs the identical snapshot);
	// OnlinePendingVersion 0 means none.
	OnlineApplied        int64
	OnlineModelVersion   int64
	OnlineRetrains       int64
	OnlineSwaps          int64
	OnlineSkips          int64
	OnlinePendingVersion int64
	OnlinePendingEpoch   int64
	OnlinePendingBase    int
	// ModelDigest is sha256(Spec.Model), recomputed and compared on decode
	// so a corrupted model checkpoint fails loudly instead of silently
	// changing predictions.
	ModelDigest [32]byte
}

// entryIndex numbers the checkpoint's Entries, the corpus its states'
// prediction references point into.
func (c *Checkpoint) entryIndex() *refIndex {
	x := &refIndex{}
	for _, a := range c.Entries {
		x.add(a.Text)
	}
	return x
}

// appendBody appends the checkpoint's field sequence (everything after the
// magic, version, and size header) with the given states, which are
// c.States in reference form.
func (c *Checkpoint) appendBody(e *enc, states []fuzzer.VMState) {
	e.spec(c.Spec)
	e.i64(c.Epoch)
	e.u64(c.Seq)
	e.i64(c.NextSample)
	e.int(len(c.Series))
	for _, p := range c.Series {
		e.i64(p.Cost)
		e.int(p.Edges)
	}
	e.acceptedList(c.Entries)
	e.i64(c.TotalEdges)
	e.blob(c.Cover)
	e.vmStates(states)
	e.events(c.PendingSeed)
	e.flag(c.SeedFlushed)
	e.int(c.JournalCap)
	e.events(c.Journal)
	e.u64(c.JournalNext)
	e.u64(c.JournalDropped)
	e.i64(c.OnlineApplied)
	e.i64(c.OnlineModelVersion)
	e.i64(c.OnlineRetrains)
	e.i64(c.OnlineSwaps)
	e.i64(c.OnlineSkips)
	e.i64(c.OnlinePendingVersion)
	e.i64(c.OnlinePendingEpoch)
	e.int(c.OnlinePendingBase)
	digest := sha256.Sum256(c.Spec.Model)
	e.b = append(e.b, digest[:]...)
}

// decodeBody parses the checkpoint field sequence; States come back in
// reference form.
func (c *Checkpoint) decodeBody(d *dec) {
	c.Spec = d.spec()
	c.Epoch = d.i64()
	c.Seq = d.u64()
	c.NextSample = d.i64()
	n := d.listLen()
	for i := 0; i < n && d.err == nil; i++ {
		c.Series = append(c.Series, fuzzer.Point{Cost: d.i64(), Edges: d.int()})
	}
	c.Entries = d.acceptedList()
	c.TotalEdges = d.i64()
	c.Cover = d.blob()
	c.States = d.vmStates()
	c.PendingSeed = d.events()
	c.SeedFlushed = d.flag()
	c.JournalCap = d.int()
	c.Journal = d.events()
	c.JournalNext = d.u64()
	c.JournalDropped = d.u64()
	c.OnlineApplied = d.i64()
	c.OnlineModelVersion = d.i64()
	c.OnlineRetrains = d.i64()
	c.OnlineSwaps = d.i64()
	c.OnlineSkips = d.i64()
	c.OnlinePendingVersion = d.i64()
	c.OnlinePendingEpoch = d.i64()
	c.OnlinePendingBase = d.int()
	copy(c.ModelDigest[:], d.take(sha256.Size))
}

// sealCheckpoint frames an encoded body as a checkpoint file: magic,
// version, uvarint declared body size, then the body flate-compressed at
// blobFlateLevel.
func sealCheckpoint(body []byte) []byte {
	out := enc{b: append([]byte(nil), checkpointMagic...)}
	out.u64(checkpointVersion)
	out.b = binary.AppendUvarint(out.b, uint64(len(body)))
	return appendFlate(out.b, body, blobFlateLevel)
}

// Encode serializes the checkpoint in the current format, with every
// prediction naming its base by index into Entries. The flate level is
// fixed (blobFlateLevel), so encoding is a pure function of the struct and
// the file stays canonical. States must be canonical — every prediction's
// base is in Entries and none is Local, as after any merge — or Encode
// panics: such a checkpoint could never be resumed.
func (c *Checkpoint) Encode() []byte {
	states, err := c.entryIndex().refStates(c.States)
	if err != nil {
		panic(fmt.Sprintf("cluster: encoding checkpoint: %v", err))
	}
	var body enc
	c.appendBody(&body, states)
	return sealCheckpoint(body.b)
}

// DecodeCheckpoint parses and validates a checkpoint. It returns
// ErrBadVersion for an unknown magic or any version but the current one,
// ErrTruncated/ErrBadMessage for corrupt payloads — including a declared
// decompressed size over the cap (rejected before inflating), a corrupt
// flate stream, a prediction reference outside Entries, a model whose
// digest does not match, a cover that contradicts the edge count, or a file
// whose bytes differ from the canonical re-encoding of its contents.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("%w: checkpoint header", ErrTruncated)
	}
	if string(b[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%w: not a checkpoint file", ErrBadVersion)
	}
	if v := binary.LittleEndian.Uint64(b[len(checkpointMagic):]); v != checkpointVersion {
		return nil, fmt.Errorf("%w: checkpoint version %d (want %d)", ErrBadVersion, v, checkpointVersion)
	}
	hdr := b[len(checkpointMagic)+8:]
	rawLen, n := binary.Uvarint(hdr)
	if n <= 0 {
		return nil, fmt.Errorf("%w: checkpoint size header", ErrBadMessage)
	}
	if rawLen > maxCheckpointBody {
		return nil, fmt.Errorf("%w: declared checkpoint body %d exceeds cap %d",
			ErrBadMessage, rawLen, maxCheckpointBody)
	}
	bodyBytes, err := inflateExact(hdr[n:], int(rawLen))
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{}
	d := dec{b: bodyBytes}
	c.decodeBody(&d)
	if err := d.finish(); err != nil {
		return nil, err
	}
	if err := c.entryIndex().resolveStates(c.States); err != nil {
		return nil, err
	}
	// Canonical-bytes check: exactly one valid file per barrier state, the
	// same property the wire codec's fuzz targets enforce.
	if !bytes.Equal(c.Encode(), b) {
		return nil, fmt.Errorf("%w: non-canonical checkpoint encoding", ErrBadMessage)
	}
	if got := sha256.Sum256(c.Spec.Model); got != c.ModelDigest {
		return nil, fmt.Errorf("%w: model digest mismatch", ErrBadMessage)
	}
	if c.JournalCap < 0 || c.JournalCap > maxWireList {
		return nil, fmt.Errorf("%w: implausible journal capacity %d", ErrBadMessage, c.JournalCap)
	}
	if c.OnlinePendingBase < 0 || c.OnlinePendingBase > len(c.Entries) {
		return nil, fmt.Errorf("%w: pending retrain snapshot %d beyond %d corpus entries",
			ErrBadMessage, c.OnlinePendingBase, len(c.Entries))
	}
	if c.OnlinePendingVersion != 0 && c.OnlinePendingVersion != c.OnlineApplied+1 {
		return nil, fmt.Errorf("%w: pending retrain version %d after resolved version %d",
			ErrBadMessage, c.OnlinePendingVersion, c.OnlineApplied)
	}
	cov, err := trace.CoverFromSparse(c.Cover)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint cover: %v", ErrBadMessage, err)
	}
	if int64(cov.Len()) != c.TotalEdges {
		return nil, fmt.Errorf("%w: cover holds %d edges, checkpoint claims %d",
			ErrBadMessage, cov.Len(), c.TotalEdges)
	}
	return c, nil
}

// WriteCheckpointFile writes data to path atomically (temp file + rename in
// the same directory), so a crash mid-write never leaves a truncated
// checkpoint where a resumable one used to be.
func WriteCheckpointFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

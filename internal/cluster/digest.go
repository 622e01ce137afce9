// Digests condense the determinism-guaranteed campaign observables into
// comparable strings: the test suites assert that W-worker clusters,
// single-host runs and checkpoint-resumed runs produce byte-identical
// digests per seed.

package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/obs"
)

// CorpusDigest hashes the corpus contents in publish order: entry text plus
// per-call traces. Publish order is part of the determinism guarantee (it
// drives mutation scheduling), so it is hashed, not sorted away.
func CorpusDigest(c *corpus.Corpus) string {
	h := sha256.New()
	var buf [8]byte
	for _, e := range c.Entries() {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(e.Text)))
		h.Write(buf[:])
		h.Write([]byte(e.Text))
		for _, tr := range e.Traces {
			for _, b := range tr {
				binary.LittleEndian.PutUint64(buf[:], uint64(b))
				h.Write(buf[:])
			}
			binary.LittleEndian.PutUint64(buf[:], ^uint64(0)) // trace terminator
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CoverDigest hashes the corpus's accumulated edge coverage (sorted edges).
func CoverDigest(c *corpus.Corpus) string {
	h := sha256.New()
	var buf [8]byte
	for _, e := range c.TotalCover().Edges() {
		binary.LittleEndian.PutUint64(buf[:], uint64(e))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JournalDigest hashes the journal stream: every event's (Kind, VM, Epoch,
// Cost, Value, Detail) tuple in order. Seq is excluded — it is positional
// and its stability follows from the stream's.
func JournalDigest(events []obs.Event) string {
	h := sha256.New()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s := func(v string) {
		u(uint64(len(v)))
		h.Write([]byte(v))
	}
	for _, e := range events {
		s(e.Kind)
		u(uint64(int64(e.VM)))
		u(uint64(e.Epoch))
		u(uint64(e.Cost))
		u(uint64(e.Value))
		s(e.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))
}

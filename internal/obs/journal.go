package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured campaign event. The fuzzer records the campaign's
// structural history — epoch barriers, new-edge discoveries, deduplicated
// crashes, model retrains and swaps — rather than a log line per
// execution, so a multi-hour campaign's journal stays small and diffable.
type Event struct {
	// Seq is the journal-assigned global sequence number. Campaign events
	// are recorded in deterministic order (the fuzzer's reconciler flushes
	// per-VM event buffers in ascending VM order at epoch barriers), so
	// for a fixed seed the (Seq, Kind, VM, Epoch, Cost, Value, Detail)
	// tuple stream is identical across runs, and per-VM subsequences are
	// stable across fleet sizes.
	Seq uint64 `json:"seq"`
	// Kind classifies the event; see the Event* constants.
	Kind string `json:"kind"`
	// VM is the originating simulated VM (-1 for fleet-level events such
	// as epoch barriers).
	VM int `json:"vm"`
	// Epoch is the reconcile epoch the event belongs to (0 before the
	// first barrier).
	Epoch int64 `json:"epoch"`
	// Cost is the originating VM's simulated cost (blocks executed) when
	// the event was recorded.
	Cost int64 `json:"cost"`
	// Value carries the event's magnitude (new edges added, corpus size…).
	Value int64 `json:"value,omitempty"`
	// Detail is a short human-readable payload (crash title, mode name…).
	Detail string `json:"detail,omitempty"`
}

// The journal event kinds recorded by the fuzzer.
const (
	// EventCampaignStart opens a campaign: Detail is "mode seed=S vms=N
	// budget=B".
	EventCampaignStart = "campaign_start"
	// EventSeed records the initial seed-corpus pass: Value is how many
	// seed programs were retained.
	EventSeed = "seed"
	// EventNewEdges records a program accepted into the (VM-visible)
	// corpus: Value is its new-edge contribution.
	EventNewEdges = "new_edges"
	// EventCrash records a first-seen (per VM) crash title in Detail.
	EventCrash = "crash"
	// EventEpoch records a reconcile barrier: Value is the shared corpus
	// size after the merge, Detail is "edges=E".
	EventEpoch = "epoch"
	// EventModelTrain records an online-learning retrain kickoff at an
	// epoch barrier: Value is the checkpoint version being trained, Detail
	// is "SPMV bases=N" (the deterministic corpus snapshot size the harvest
	// draws from). Part of the journal determinism guarantee: kickoffs are
	// scheduled purely on barrier epochs and corpus state.
	EventModelTrain = "model_train"
	// EventModelSwap records an online-learning model hot-swap applied at
	// an epoch barrier — the versioned SPMV (SnowPlow Model Version)
	// record. Value is the checkpoint version, Detail is
	// "SPMV digest=<16 hex> f1=<val F1> applied|skipped". The digest is
	// over the canonical serving-form checkpoint bytes, so single-host and
	// cluster campaigns journal byte-identical swap records.
	EventModelSwap = "model_swap"
	// EventCampaignEnd closes a campaign: Value is final edge coverage,
	// Detail is "execs=N corpus=C".
	EventCampaignEnd = "campaign_end"
)

// Journal is a bounded ring buffer of events. Record assigns sequence
// numbers in call order under a mutex; once capacity is reached the oldest
// events are overwritten (Dropped counts them). All methods are nil-safe,
// so an unjournaled campaign pays one nil check per would-be event.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	cap     int
	next    uint64 // next sequence number
	start   int    // ring index of the oldest retained event
	n       int    // retained events
	dropped uint64
}

// DefaultJournalCap bounds journals created with capacity <= 0.
const DefaultJournalCap = 8192

// NewJournal creates a journal retaining up to capacity events.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{buf: make([]Event, capacity), cap: capacity}
}

// NewJournalFrom reconstructs a journal from a checkpoint export: the
// retained events (oldest first, with their original Seq values), the next
// sequence number to assign, and the evicted-event count. If more events
// than capacity are passed, only the newest are retained (the surplus adds
// to dropped), matching what the ring would have kept.
func NewJournalFrom(capacity int, events []Event, next uint64, dropped uint64) *Journal {
	j := NewJournal(capacity)
	if over := len(events) - j.cap; over > 0 {
		events = events[over:]
		dropped += uint64(over)
	}
	copy(j.buf, events)
	j.n = len(events)
	j.next = next
	j.dropped = dropped
	return j
}

// Record appends the event, assigning its sequence number. The passed
// event's Seq field is ignored.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	e.Seq = j.next
	j.next++
	if j.n == j.cap {
		j.buf[j.start] = e
		j.start = (j.start + 1) % j.cap
		j.dropped++
	} else {
		j.buf[(j.start+j.n)%j.cap] = e
		j.n++
	}
	j.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.buf[(j.start+i)%j.cap]
	}
	return out
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Next returns the sequence number the next recorded event will receive
// (checkpoint exports pair it with Events to rebuild the ring exactly).
func (j *Journal) Next() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Dropped returns how many events were evicted by the ring bound.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// journalDump is the JSON shape served at /journal.
type journalDump struct {
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// WriteJSON renders the retained events (oldest first) with the dropped
// count, as served at /journal.
func (j *Journal) WriteJSON(w io.Writer) error {
	dump := journalDump{Events: []Event{}}
	if j != nil {
		dump.Dropped = j.Dropped()
		dump.Events = j.Events()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

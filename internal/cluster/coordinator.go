// The coordinator is the wire transport of the campaign engine. The engine
// itself — authoritative corpus, canonical VM states, merge, journal order,
// coverage series, online-learning schedule, stats — is fuzzer.Reconciler,
// the same one a single-host -vms N campaign runs; the coordinator carries
// its three barrier operations to N workers over TCP and adds what only a
// network needs. Every barrier it broadcasts the previous merge's accepted
// entries, each worker fuzzes one slice, and the returned deltas are
// validated and rebuilt into corpus entries at the decode boundary before
// the reconciler merges them. Worker loss is handled inside the barrier:
// the lost shard's canonical states are restored onto a surviving worker,
// which re-runs the epoch for exactly those VMs — the re-run is
// bit-identical to what the lost worker would have produced, so the
// campaign's output is independent of churn. Checkpoints snapshot the
// reconciler's barrier state after a merge and resume onto any fleet.

package cluster

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"github.com/repro/snowplow/internal/cfa"
	"github.com/repro/snowplow/internal/corpus"
	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/obs"
	"github.com/repro/snowplow/internal/online"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/prog"
)

// Config parameterizes a coordinator.
type Config struct {
	Spec CampaignSpec
	// Workers is how many worker connections to wait for before starting.
	Workers int
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// CheckpointPath, when set, receives an atomic checkpoint file every
	// CheckpointEvery epochs.
	CheckpointPath  string
	CheckpointEvery int64
	// OnCheckpoint, when set, observes every encoded checkpoint (tests use
	// it to capture mid-campaign state without touching the filesystem).
	OnCheckpoint func(epoch int64, data []byte)
	// Metrics, when set, receives the cluster_* instrument family and the
	// campaign counters the reconciler publishes (fuzzer_*, corpus_*,
	// online_*).
	Metrics *obs.Registry
	// JournalCap bounds the campaign journal (DefaultJournalCap if <= 0).
	JournalCap int
	// IOTimeout bounds every network operation, including waiting for
	// worker connections (default 60s). A worker that misses it is treated
	// as lost.
	IOTimeout time.Duration
	// Compress is the per-frame flate level (1-9) the coordinator sends
	// every worker in its WireMsg; 0 disables frame compression, and
	// anything outside 0-9 is refused. Wire-level only: merged state,
	// digests and checkpoints are bit-identical at every level.
	Compress int
	// Logf, when set, receives coordinator progress lines.
	Logf func(format string, args ...any)
}

// Result is a finished cluster campaign: the reconciler's campaign stats
// plus digests of the determinism-guaranteed observables.
type Result struct {
	Stats         *fuzzer.Stats
	CorpusDigest  string
	CoverDigest   string
	JournalDigest string
	// Events is the journal's retained window (nil when not journaling).
	Events []obs.Event
	// Workers is the configured worker count.
	Workers int
	// Wire aggregates the coordinator's frame-level byte accounting across
	// all worker connections (experiments read the compression ratio off
	// it).
	Wire WireStats
}

// WireStats is the coordinator's aggregated frame accounting: payload
// bytes before compression (raw) and bytes actually on the wire, in each
// direction, plus the epoch count the traffic amortizes over.
type WireStats struct {
	TxRawBytes  int64 // sent payload+header bytes before compression
	TxWireBytes int64 // sent bytes on the wire
	RxRawBytes  int64 // received payload+header bytes after inflation
	RxWireBytes int64 // received bytes on the wire
	Epochs      int64 // merged epochs the traffic spans
	// CompressedWorkers counts connections that ran at a non-zero flate
	// level.
	CompressedWorkers int
}

// Coordinator runs one cluster campaign.
type Coordinator struct {
	cfg   Config
	k     *kernel.Kernel
	an    *cfa.Analysis
	ln    net.Listener
	corp  *corpus.Corpus
	jn    *obs.Journal
	jnCap int
	m     *clusterMetrics

	// rec is the campaign engine; ctl is its online-learning controller
	// (nil for frozen-model campaigns), held here too because checkpoints
	// carry the controller's resume surface.
	rec *fuzzer.Reconciler
	ctl *online.Controller

	workers []*workerConn // admitted connections, by worker index
	resumed bool
	// refs numbers corp in publish order for the reference form of
	// prediction windows (refs.go), extended at every barrier.
	refs refIndex
}

// Spec returns the campaign spec the coordinator is running — for a
// resumed campaign, the spec restored from the checkpoint.
func (c *Coordinator) Spec() CampaignSpec { return c.cfg.Spec }

// NewCoordinator creates a coordinator for a fresh campaign — running the
// seed pass, which needs no worker — and starts listening. Call Run to
// admit workers and execute the campaign.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	c, norm, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	if c.cfg.Spec.Journal {
		c.jn = obs.NewJournal(c.jnCap)
	}
	norm.Journal = c.jn
	if err := c.initOnline(); err != nil {
		return nil, err
	}
	if c.rec, err = fuzzer.NewReconciler(norm, c.corp, c.ctl); err != nil {
		return nil, err
	}
	return c, nil
}

// ResumeCoordinator creates a coordinator continuing a checkpointed
// campaign. The checkpoint's spec overrides cfg.Spec, and the worker count
// may differ from the checkpointed campaign's — VM shards are recut over
// the new fleet with identical results.
func ResumeCoordinator(cfg Config, checkpoint []byte) (*Coordinator, error) {
	ck, err := DecodeCheckpoint(checkpoint)
	if err != nil {
		return nil, err
	}
	cfg.Spec = ck.Spec
	c, norm, err := newCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range ck.Entries {
		e, err := rebuildEntry(c.k, a.Text, a.Traces)
		if err != nil {
			return nil, fmt.Errorf("cluster: checkpoint corpus: %w", err)
		}
		c.corp.SeedEntry(e)
	}
	if got := int64(c.corp.TotalEdges()); got != ck.TotalEdges {
		return nil, fmt.Errorf("%w: checkpoint coverage mismatch: rebuilt %d edges, recorded %d",
			ErrBadMessage, got, ck.TotalEdges)
	}
	// The sparse cover encoding is canonical, so byte equality against the
	// rebuilt corpus cover is an exact set comparison (strictly stronger
	// than the count check).
	if !bytes.Equal(c.corp.AppendTotalSparse(nil), ck.Cover) {
		return nil, fmt.Errorf("%w: checkpoint cover does not match rebuilt corpus cover", ErrBadMessage)
	}
	if len(ck.States) != norm.VMs {
		return nil, fmt.Errorf("%w: checkpoint has %d VM states for %d VMs",
			ErrBadMessage, len(ck.States), norm.VMs)
	}
	for vm, st := range ck.States {
		if st.VM != vm {
			return nil, fmt.Errorf("%w: checkpoint VM states out of order", ErrBadMessage)
		}
	}
	if c.cfg.Spec.Journal {
		if ck.JournalCap > 0 {
			c.jnCap = ck.JournalCap
		}
		c.jn = obs.NewJournalFrom(c.jnCap, ck.Journal, ck.JournalNext, ck.JournalDropped)
	}
	norm.Journal = c.jn
	if err := c.initOnline(); err != nil {
		return nil, err
	}
	if c.ctl != nil {
		c.ctl.SetApplied(ck.OnlineApplied)
		c.ctl.RestoreCounts(ck.OnlineRetrains, ck.OnlineSwaps, ck.OnlineSkips)
		if ck.OnlinePendingVersion > 0 {
			// Restart the in-flight retrain from the corpus publish-order
			// prefix the original kickoff snapshotted; it produces the
			// identical swap at the identical barrier.
			entries := c.corp.Entries()
			bases := make([]*prog.Prog, ck.OnlinePendingBase)
			for i := range bases {
				bases[i] = entries[i].Prog
			}
			c.ctl.ResumePending(ck.OnlinePendingVersion, ck.OnlinePendingEpoch, bases)
		}
	}
	c.rec = fuzzer.ResumeReconciler(norm, c.corp, c.ctl, fuzzer.BarrierState{
		States:       ck.States,
		Epoch:        ck.Epoch,
		Seq:          int64(ck.Seq),
		NextSample:   ck.NextSample,
		Series:       ck.Series,
		PendingSeed:  ck.PendingSeed,
		SeedFlushed:  ck.SeedFlushed,
		ModelVersion: ck.OnlineModelVersion,
	})
	c.resumed = true
	return c, nil
}

// newCoordinator materializes the spec and starts listening; it also
// returns the normalized campaign config the reconciler will run, which
// publishes the campaign's counters into cfg.Metrics.
func newCoordinator(cfg Config) (*Coordinator, fuzzer.Config, error) {
	var none fuzzer.Config
	if cfg.Workers <= 0 {
		return nil, none, fmt.Errorf("cluster: need at least one worker")
	}
	if cfg.Compress < 0 || cfg.Compress > maxFlateLevel {
		return nil, none, fmt.Errorf("cluster: compression level %d outside the flate range 0-%d", cfg.Compress, maxFlateLevel)
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 60 * time.Second
	}
	rt, err := cfg.Spec.Materialize(false, 0)
	if err != nil {
		return nil, none, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, none, err
	}
	jnCap := cfg.JournalCap
	if jnCap <= 0 {
		jnCap = obs.DefaultJournalCap
	}
	norm := rt.Cfg.Normalized()
	norm.Metrics = cfg.Metrics
	return &Coordinator{
		cfg:   cfg,
		k:     rt.Kernel,
		an:    rt.An,
		ln:    ln,
		corp:  corpus.New(),
		jnCap: jnCap,
		m:     newClusterMetrics(cfg.Metrics),
	}, norm, nil
}

// initOnline builds the continual-learning controller when the spec enables
// it. The gate incumbent is the spec's model bytes loaded fresh — the same
// canonical serving form every worker materializes — so the gate decides
// exactly as a single-host campaign serving those bytes would.
func (c *Coordinator) initOnline() error {
	oc := c.cfg.Spec.OnlineConfig()
	if oc == nil {
		return nil
	}
	if c.cfg.Spec.Mode != 1 {
		return fmt.Errorf("cluster: online learning requires snowplow mode")
	}
	m, err := pmm.Load(bytes.NewReader(c.cfg.Spec.Model))
	if err != nil {
		return fmt.Errorf("cluster: loading model for online learning: %w", err)
	}
	m.Freeze()
	ctl, err := online.New(online.Params{
		Config:  *oc,
		Kernel:  c.k,
		An:      c.an,
		Seed:    c.cfg.Spec.Seed,
		Current: m,
		Metrics: c.cfg.Metrics,
		Logf:    c.cfg.Logf,
	})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.ctl = ctl
	return nil
}

// Addr returns the coordinator's listen address, for workers to dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// workerConn is one admitted worker connection. Its framer holds the
// connection's flate level and the pooled frame buffers.
type workerConn struct {
	idx     int
	conn    net.Conn
	vms     []int // VMs currently owned (informational)
	alive   bool
	timeout time.Duration
	m       *clusterMetrics
	fr      framer
}

func (wc *workerConn) send(typ byte, payload []byte) error {
	wc.conn.SetWriteDeadline(time.Now().Add(wc.timeout))
	n, err := wc.fr.writeFrame(wc.conn, typ, payload)
	if err != nil {
		return err
	}
	wc.m.wireTx.Add(int64(n))
	wc.m.wireRaw.Add(int64(len(payload)) + wireFrameHeader)
	return nil
}

func (wc *workerConn) recv() (byte, []byte, error) {
	wc.conn.SetReadDeadline(time.Now().Add(wc.timeout))
	typ, payload, n, err := wc.fr.readFrame(wc.conn)
	if err != nil {
		return 0, nil, err
	}
	wc.m.wireRx.Add(int64(n))
	wc.m.wireRaw.Add(int64(len(payload)) + wireFrameHeader)
	return typ, payload, nil
}

// recvAck reads one ack frame, surfacing worker-sent errors.
func (wc *workerConn) recvAck() error {
	typ, payload, err := wc.recv()
	if err != nil {
		return err
	}
	switch typ {
	case frameAck:
		return nil
	case frameErr:
		em, _ := DecodeErr(payload)
		return fmt.Errorf("cluster: worker %d failed: %s", wc.idx, em.Msg)
	default:
		return fmt.Errorf("%w: unexpected frame 0x%02x, want ack", ErrBadMessage, typ)
	}
}

// recvDelta reads one DeltaMsg for the given epoch, surfacing worker-sent
// errors.
func (wc *workerConn) recvDelta(epoch int64) (DeltaMsg, error) {
	typ, payload, err := wc.recv()
	if err != nil {
		return DeltaMsg{}, err
	}
	switch typ {
	case frameDelta:
		m, err := DecodeDelta(payload)
		if err != nil {
			return DeltaMsg{}, err
		}
		if m.Epoch != epoch {
			return DeltaMsg{}, fmt.Errorf("%w: delta for epoch %d at barrier %d", ErrBadMessage, m.Epoch, epoch)
		}
		return m, nil
	case frameErr:
		em, _ := DecodeErr(payload)
		return DeltaMsg{}, fmt.Errorf("cluster: worker %d failed: %s", wc.idx, em.Msg)
	default:
		return DeltaMsg{}, fmt.Errorf("%w: unexpected frame 0x%02x, want delta", ErrBadMessage, typ)
	}
}

// restoreCrashes re-prepends the crash-table prefix a worker elided from
// each delta: CrashBase leading entries, which the canonical state of the
// previous barrier holds (the table is append-only, so that state's table
// is an exact prefix of the worker's). The claimed base is validated
// against the stored table, so a confused or hostile worker cannot make the
// coordinator fabricate entries. After this call every delta carries its
// full crash table and CrashBase is zero.
func restoreCrashes(states []fuzzer.VMState, m *DeltaMsg) error {
	for i := range m.Deltas {
		d := &m.Deltas[i]
		if d.CrashBase == 0 {
			continue
		}
		if d.VM < 0 || d.VM >= len(states) {
			return fmt.Errorf("%w: crash base for invalid VM %d", ErrBadMessage, d.VM)
		}
		known := states[d.VM].Crashes
		if d.CrashBase > len(known) {
			return fmt.Errorf("%w: crash base %d exceeds the %d known entries for VM %d",
				ErrBadMessage, d.CrashBase, len(known), d.VM)
		}
		d.State.Crashes = append(known[:d.CrashBase:d.CrashBase], d.State.Crashes...)
		d.CrashBase = 0
	}
	return nil
}

// rebuildEntry is the decode boundary for corpus entries: bytes from a
// socket or a checkpoint become a corpus.Entry only after the traces are
// validated against the kernel and the program parses.
func rebuildEntry(k *kernel.Kernel, text string, traces [][]kernel.BlockID) (*corpus.Entry, error) {
	if err := validateTraces(k, traces); err != nil {
		return nil, err
	}
	p, err := prog.Parse(k.Target, text)
	if err != nil {
		return nil, fmt.Errorf("%w: unparseable program: %v", ErrBadMessage, err)
	}
	return corpus.EntryFromTraces(p, traces), nil
}

// Run admits Workers connections, executes the campaign to budget
// exhaustion and returns the assembled result. The listener is closed on
// return.
func (c *Coordinator) Run() (*Result, error) {
	defer c.ln.Close()
	if err := c.admit(); err != nil {
		return nil, err
	}
	defer func() {
		for _, wc := range c.workers {
			wc.conn.Close()
		}
	}()
	c.m.workers.Set(int64(len(c.workers)))

	stats, err := c.rec.Run(c, func() error {
		c.m.epochs.Inc()
		if c.cfg.CheckpointEvery > 0 && c.rec.Epoch%c.cfg.CheckpointEvery == 0 {
			return c.writeCheckpoint()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Stats:        stats,
		CorpusDigest: CorpusDigest(c.corp),
		CoverDigest:  CoverDigest(c.corp),
		Workers:      c.cfg.Workers,
	}
	res.Wire.Epochs = c.rec.Epoch
	for _, wc := range c.workers {
		res.Wire.TxRawBytes += wc.fr.txRaw
		res.Wire.TxWireBytes += wc.fr.txWire
		res.Wire.RxRawBytes += wc.fr.rxRaw
		res.Wire.RxWireBytes += wc.fr.rxWire
		if wc.fr.level > 0 {
			res.Wire.CompressedWorkers++
		}
	}
	if c.jn != nil {
		res.Events = c.jn.Events()
		res.JournalDigest = JournalDigest(res.Events)
	}
	return res, nil
}

// admit accepts the configured number of workers, handshakes each, and
// deals out the VM shards: worker i owns the contiguous range
// [i*V/W, (i+1)*V/W) (empty when V < W). Failures here are fatal — churn
// tolerance begins once the campaign is running.
func (c *Coordinator) admit() error {
	if tcp, ok := c.ln.(*net.TCPListener); ok {
		tcp.SetDeadline(time.Now().Add(c.cfg.IOTimeout))
	}
	workers := make([]*workerConn, c.cfg.Workers)
	for i := range workers {
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: waiting for worker %d/%d: %w", i, c.cfg.Workers, err)
		}
		workers[i] = &workerConn{idx: i, conn: conn, alive: true, timeout: c.cfg.IOTimeout, m: c.m}
	}
	c.workers = workers
	var snapshot []fuzzer.Accepted
	if c.resumed {
		for _, e := range c.corp.Entries() {
			snapshot = append(snapshot, fuzzer.Accepted{VM: -1, Seeded: true, Text: e.Text, Traces: e.Traces})
		}
	}
	nvm, nw := len(c.rec.States), len(workers)
	for i, wc := range workers {
		typ, payload, err := wc.recv()
		if err != nil {
			return fmt.Errorf("cluster: worker %d handshake: %w", i, err)
		}
		if typ != frameHello {
			return fmt.Errorf("%w: worker %d sent frame 0x%02x, want hello", ErrBadMessage, i, typ)
		}
		if _, err := DecodeHello(payload); err != nil {
			wc.send(frameErr, EncodeErr(ErrMsg{Msg: err.Error()}))
			return fmt.Errorf("cluster: worker %d hello: %w", i, err)
		}
		// Every frame after the WireMsg runs at the campaign's flate level.
		if err := wc.send(frameWire, EncodeWireMsg(WireMsg{Level: uint32(c.cfg.Compress)})); err != nil {
			return fmt.Errorf("cluster: configuring worker %d: %w", i, err)
		}
		wc.fr.level = c.cfg.Compress
		lo, hi := i*nvm/nw, (i+1)*nvm/nw
		for vm := lo; vm < hi; vm++ {
			wc.vms = append(wc.vms, vm)
		}
		states, err := c.refs.sync(c.corp).refStates(c.rec.States[lo:hi])
		if err != nil {
			return err
		}
		a := Assign{
			Spec:       c.cfg.Spec,
			VMs:        wc.vms,
			Snapshot:   snapshot,
			States:     states,
			StartEpoch: c.rec.Epoch,
		}
		if err := wc.send(frameAssign, AppendAssign(nil, a)); err != nil {
			return fmt.Errorf("cluster: assigning worker %d: %w", i, err)
		}
	}
	for i, wc := range workers {
		if err := wc.recvAck(); err != nil {
			return fmt.Errorf("cluster: worker %d rejected assignment: %w", i, err)
		}
		c.logf("worker %d ready, VMs %v", i, wc.vms)
	}
	return nil
}

// RunEpoch is the reconciler's epoch over the wire: broadcast the previous
// merge's accepted entries, collect one delta per active VM, and reassign
// the shards of workers lost on the way.
func (c *Coordinator) RunEpoch(epoch int64, accepted []fuzzer.Accepted, active []int) ([]fuzzer.VMDelta, error) {
	// The corpus is fixed until this barrier's merge, so one sync serves
	// every reference this epoch resolves or writes.
	c.refs.sync(c.corp)
	ran := map[int]bool{}
	var deltas []fuzzer.VMDelta
	collect := func(wc *workerConn) error {
		m, err := wc.recvDelta(epoch)
		if err != nil {
			c.loseWorker(wc, err)
			return nil // partial work is discarded; reassignment re-runs it
		}
		if err := restoreCrashes(c.rec.States, &m); err != nil {
			return err
		}
		if err := c.refs.resolveDeltas(m.Deltas); err != nil {
			return err
		}
		c.m.deltas.Inc()
		for _, d := range m.Deltas {
			if d.VM < 0 || d.VM >= len(c.rec.States) || ran[d.VM] {
				return fmt.Errorf("%w: delta for invalid or duplicate VM %d", ErrBadMessage, d.VM)
			}
			for i := range d.Locals {
				l := &d.Locals[i]
				if l.Entry, err = rebuildEntry(c.k, l.Text, l.Traces); err != nil {
					return err
				}
			}
			ran[d.VM] = true
			deltas = append(deltas, d)
		}
		return nil
	}
	for _, wc := range c.broadcast(frameEpoch, AppendEpoch(nil, EpochMsg{Epoch: epoch, Accepted: accepted})) {
		if err := collect(wc); err != nil {
			return nil, err
		}
	}

	// Reassign: while active VMs are missing a delta (their worker died
	// before delivering), restore their canonical pre-epoch states onto the
	// lowest-indexed surviving worker — its replica matches the state the
	// lost VMs were captured against — and have it re-run this epoch for
	// exactly those VMs.
	for {
		var missing []int
		for _, vm := range active {
			if !ran[vm] {
				missing = append(missing, vm)
			}
		}
		if len(missing) == 0 {
			return deltas, nil
		}
		target := c.firstAlive()
		if target == nil {
			return nil, fmt.Errorf("cluster: all workers lost at epoch %d", epoch)
		}
		states := make([]fuzzer.VMState, 0, len(missing))
		for _, vm := range missing {
			states = append(states, c.rec.States[vm])
		}
		c.logf("epoch %d: reassigning VMs %v to worker %d", epoch, missing, target.idx)
		c.m.reassignments.Inc()
		states, err := c.refs.refStates(states)
		if err != nil {
			return nil, err
		}
		if err := target.send(frameRestore, AppendRestore(nil, RestoreMsg{Epoch: epoch, States: states})); err != nil {
			c.loseWorker(target, err)
			continue
		}
		target.vms = append(target.vms, missing...)
		if err := collect(target); err != nil {
			return nil, err
		}
	}
}

// broadcast sends one message to every live worker and returns the workers
// it reached; a failed send loses the worker.
func (c *Coordinator) broadcast(frame byte, payload []byte) []*workerConn {
	var sent []*workerConn
	for _, wc := range c.workers {
		if !wc.alive {
			continue
		}
		if err := wc.send(frame, payload); err != nil {
			c.loseWorker(wc, err)
			continue
		}
		sent = append(sent, wc)
	}
	return sent
}

// firstAlive returns the lowest-indexed surviving worker, or nil.
func (c *Coordinator) firstAlive() *workerConn {
	for _, wc := range c.workers {
		if wc.alive {
			return wc
		}
	}
	return nil
}

// PushModel distributes an accepted swap fleet-wide in two phases: every
// surviving worker first drains its shard's in-flight predictions and
// stages the new model (prep), and only after the whole fleet has
// acknowledged the prep does the commit go out. The barrier matters when
// several workers share one serving process: no worker may swap the shared
// server while another still has undrained queries against the old
// generation. A worker lost mid-push is ordinary churn — its VMs are
// reassigned at the next barrier onto a survivor holding the committed
// model.
func (c *Coordinator) PushModel(sw *online.Swap) error {
	phase := func(frame byte, m ModelMsg) {
		for _, wc := range c.broadcast(frame, AppendModelMsg(nil, m)) {
			if err := wc.recvAck(); err != nil {
				c.loseWorker(wc, err)
			}
		}
	}
	phase(frameModelPrep, ModelMsg{Version: sw.Version, Model: sw.Bytes})
	phase(frameModelCommit, ModelMsg{Version: sw.Version})
	if c.firstAlive() == nil {
		return fmt.Errorf("cluster: all workers lost during model push at epoch %d", c.rec.Epoch)
	}
	c.logf("epoch %d: model v%d (digest %s) committed fleet-wide", c.rec.Epoch, sw.Version, sw.Digest)
	// The spec's model bytes track the serving generation, so checkpoints
	// resume onto the swapped model and late-joining state (reassigned
	// shards) materializes it.
	c.cfg.Spec.Model = sw.Bytes
	c.m.modelPushes.Inc()
	return nil
}

func (c *Coordinator) loseWorker(wc *workerConn, err error) {
	wc.alive = false
	wc.conn.Close()
	c.m.workers.Add(-1)
	c.logf("worker %d lost: %v", wc.idx, err)
}

// checkpoint snapshots the complete post-merge campaign state.
func (c *Coordinator) checkpoint() *Checkpoint {
	st := &c.rec.BarrierState
	ck := &Checkpoint{
		Spec:               c.cfg.Spec,
		Epoch:              st.Epoch,
		Seq:                uint64(st.Seq),
		NextSample:         st.NextSample,
		Series:             st.Series,
		TotalEdges:         int64(c.corp.TotalEdges()),
		Cover:              c.corp.AppendTotalSparse(nil),
		States:             st.States,
		PendingSeed:        st.PendingSeed,
		SeedFlushed:        st.SeedFlushed,
		JournalCap:         c.jnCap,
		OnlineModelVersion: st.ModelVersion,
	}
	for _, e := range c.corp.Entries() {
		ck.Entries = append(ck.Entries, fuzzer.Accepted{VM: -1, Seeded: true, Text: e.Text, Traces: e.Traces})
	}
	if c.jn != nil {
		ck.Journal = c.jn.Events()
		ck.JournalNext = c.jn.Next()
		ck.JournalDropped = c.jn.Dropped()
	}
	if c.ctl != nil {
		ck.OnlineApplied = c.ctl.Version()
		ck.OnlineRetrains, ck.OnlineSwaps, ck.OnlineSkips = c.ctl.Stats()
		if v, kickoff, bases, ok := c.ctl.Pending(); ok {
			ck.OnlinePendingVersion = v
			ck.OnlinePendingEpoch = kickoff
			ck.OnlinePendingBase = bases
		}
	}
	return ck
}

func (c *Coordinator) writeCheckpoint() error {
	data := c.checkpoint().Encode()
	if c.cfg.CheckpointPath != "" {
		if err := WriteCheckpointFile(c.cfg.CheckpointPath, data); err != nil {
			return fmt.Errorf("cluster: writing checkpoint: %w", err)
		}
	}
	if c.cfg.OnCheckpoint != nil {
		c.cfg.OnCheckpoint(c.rec.Epoch, data)
	}
	c.m.checkpoints.Inc()
	c.m.checkpointSize.Set(int64(len(data)))
	c.logf("epoch %d: checkpoint (%d bytes)", c.rec.Epoch, len(data))
	return nil
}

// FinalDrain collects every surviving worker's drained VM states. Workers
// lost before the drain get their final states synthesized from the
// canonical barrier states: under fault-free serving, the blocking drain
// only settles owed prediction replies, which Phantom and the pending
// windows record.
func (c *Coordinator) FinalDrain() ([]fuzzer.VMState, error) {
	finals := make([]fuzzer.VMState, len(c.rec.States))
	got := make([]bool, len(finals))
	for _, wc := range c.broadcast(frameDone, nil) {
		typ, payload, err := wc.recv()
		if err != nil {
			c.loseWorker(wc, err)
			continue
		}
		if typ != frameFinal {
			return nil, fmt.Errorf("%w: worker %d sent frame 0x%02x, want final", ErrBadMessage, wc.idx, typ)
		}
		m, err := DecodeFinal(payload)
		if err != nil {
			return nil, err
		}
		for _, st := range m.States {
			if st.VM < 0 || st.VM >= len(finals) || got[st.VM] {
				return nil, fmt.Errorf("%w: final state for invalid or duplicate VM %d", ErrBadMessage, st.VM)
			}
			finals[st.VM] = st
			got[st.VM] = true
		}
	}
	for vm := range finals {
		if !got[vm] {
			finals[vm] = synthFinal(c.rec.States[vm])
		}
	}
	return finals, nil
}

// synthFinal replays the end-of-campaign blocking drain on a canonical
// state: every owed phantom reply and every in-flight query settles as one
// harvested prediction (the fault-free serving assumption the cluster
// determinism guarantee is scoped to).
func synthFinal(st fuzzer.VMState) fuzzer.VMState {
	st.Counters.PMMPredictions += int64(st.Phantom)
	st.Phantom = 0
	var preds []fuzzer.PredState
	for _, ps := range st.Preds {
		if ps.Pending {
			st.Counters.PMMPredictions++
			continue
		}
		preds = append(preds, ps)
	}
	st.Preds = preds
	return st
}

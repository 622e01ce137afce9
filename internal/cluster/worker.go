// The worker side of the cluster protocol: dial the coordinator, receive a
// campaign spec and VM shard, then run barrier steps until told to drain.
// All campaign logic lives in fuzzer.Shard; this file is the transport
// loop.

package cluster

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"github.com/repro/snowplow/internal/fuzzer"
	"github.com/repro/snowplow/internal/pmm"
	"github.com/repro/snowplow/internal/serve"
)

// WorkerOptions tune a cluster worker.
type WorkerOptions struct {
	// Dial overrides the TCP dialer (fault-injection tests wrap the
	// connection here).
	Dial func(addr string) (net.Conn, error)
	// Inference, when non-nil, serves the worker's PMM queries instead of
	// a private model server materialized from the spec — typically one
	// tenant of a shared multi-tenant server (see RunLocal, which
	// multiplexes every in-process worker campaign onto one model this
	// way). Predictions depend only on the model and the query, so shared
	// and private serving are bit-identical. Ignored outside Snowplow mode.
	Inference serve.Inferrer
	// ServeWorkers sizes the worker's local inference server pool
	// (Snowplow mode; default 2).
	ServeWorkers int
	// Fused serves through the fused inference kernels (bit-identical to
	// the unfused path, so workers may mix freely).
	Fused bool
	// IOTimeout bounds every network operation (default 60s).
	IOTimeout time.Duration
	// Logf, when set, receives worker progress lines.
	Logf func(format string, args ...any)
}

// RunWorker joins the cluster at addr and serves barrier steps until the
// campaign completes (nil) or the connection/protocol fails. A worker is
// stateless across calls: everything it needs arrives in the Assign
// message.
func RunWorker(addr string, opts WorkerOptions) error {
	dial := opts.Dial
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	timeout := opts.IOTimeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	conn, err := dial(addr)
	if err != nil {
		return fmt.Errorf("cluster: dialing coordinator: %w", err)
	}
	defer conn.Close()
	// fr holds the connection's flate level and pooled frame buffers; its
	// zero value is the uncompressed handshake framing, set to the
	// coordinator's level once its WireMsg arrives. encBuf is the worker's
	// reusable payload scratch, so the per-epoch delta encode allocates
	// nothing in steady state.
	var fr framer
	var encBuf []byte
	send := func(typ byte, payload []byte) error {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		_, err := fr.writeFrame(conn, typ, payload)
		return err
	}
	recv := func() (byte, []byte, error) {
		conn.SetReadDeadline(time.Now().Add(timeout))
		typ, payload, _, err := fr.readFrame(conn)
		return typ, payload, err
	}
	// sendErr reports a local failure to the coordinator before bailing, so
	// it reads a reason instead of a bare connection reset.
	sendErr := func(err error) error {
		send(frameErr, EncodeErr(ErrMsg{Msg: err.Error()}))
		return err
	}

	// recvHandshake reads the next handshake frame, which must be of type
	// want; a coordinator that refuses the worker says why in an ErrMsg.
	recvHandshake := func(want byte) ([]byte, error) {
		typ, payload, err := recv()
		if err != nil {
			return nil, err
		}
		switch typ {
		case want:
			return payload, nil
		case frameErr:
			em, _ := DecodeErr(payload)
			return nil, fmt.Errorf("cluster: coordinator rejected worker: %s", em.Msg)
		default:
			return nil, fmt.Errorf("%w: frame 0x%02x, want 0x%02x", ErrBadMessage, typ, want)
		}
	}

	if err := send(frameHello, EncodeHello(Hello{Proto: protoVersion})); err != nil {
		return err
	}
	payload, err := recvHandshake(frameWire)
	if err != nil {
		return err
	}
	wm, err := DecodeWireMsg(payload)
	if err != nil {
		return err
	}
	fr.level = int(wm.Level)
	logf("flate level %d", wm.Level)
	if payload, err = recvHandshake(frameAssign); err != nil {
		return err
	}
	a, err := DecodeAssign(payload)
	if err != nil {
		return err
	}

	needServer := a.Spec.Mode == 1 && opts.Inference == nil
	rt, err := a.Spec.Materialize(needServer, opts.ServeWorkers, opts.Fused)
	if err != nil {
		return sendErr(err)
	}
	defer rt.Close()
	if a.Spec.Mode == 1 && !needServer {
		rt.Cfg.Server = opts.Inference
	}
	shard, err := fuzzer.NewShard(rt.Cfg)
	if err != nil {
		return sendErr(err)
	}
	for _, e := range a.Snapshot {
		if err := validateTraces(rt.Kernel, e.Traces); err != nil {
			return sendErr(err)
		}
	}
	if len(a.Snapshot) > 0 {
		if err := shard.ApplySnapshot(a.Snapshot); err != nil {
			return sendErr(err)
		}
	}
	// refs numbers the replica in publish order for the reference form of
	// prediction windows (refs.go): received states resolve against it,
	// outgoing deltas are converted with it.
	var refs refIndex
	restore := func(states []fuzzer.VMState) error {
		if err := refs.sync(shard.Corpus()).resolveStates(states); err != nil {
			return err
		}
		return shard.Restore(states)
	}
	if err := restore(a.States); err != nil {
		return sendErr(err)
	}
	if err := send(frameAck, nil); err != nil {
		return err
	}
	logf("assigned VMs %v from epoch %d", a.VMs, a.StartEpoch)

	// crashKnown tracks, per VM, how many crash-table entries the
	// coordinator already holds (every state it sent us, every delta we
	// sent it). The table is append-only, so each outgoing delta elides
	// that prefix and sends only its length (VMDelta.CrashBase); the
	// coordinator re-prepends its stored copy.
	crashKnown := map[int]int{}
	for _, st := range a.States {
		crashKnown[st.VM] = len(st.Crashes)
	}
	elideCrashes := func(deltas []fuzzer.VMDelta) {
		for i := range deltas {
			d := &deltas[i]
			total := len(d.State.Crashes)
			// A base past total is unreachable while the table is append-only.
			base := min(crashKnown[d.VM], total)
			d.CrashBase = base
			d.State.Crashes = d.State.Crashes[base:]
			crashKnown[d.VM] = total
		}
	}
	// sendDelta ships one barrier's deltas; their prediction windows travel
	// as references into the replica, which at this point holds exactly the
	// coordinator's corpus.
	sendDelta := func(epoch int64, deltas []fuzzer.VMDelta) error {
		if err := refs.sync(shard.Corpus()).refDeltas(deltas); err != nil {
			return sendErr(err)
		}
		elideCrashes(deltas)
		encBuf = AppendDelta(encBuf[:0], DeltaMsg{Epoch: epoch, Deltas: deltas})
		return send(frameDelta, encBuf)
	}

	// stagedModel holds a pushed-but-uncommitted swap between the two phases
	// of a fleet-wide model push (see frameModelPrep).
	var stagedModel *pmm.Model
	var stagedVersion int64

	for {
		typ, payload, err := recv()
		if err != nil {
			return err
		}
		switch typ {
		case frameEpoch:
			m, err := DecodeEpoch(payload)
			if err != nil {
				return sendErr(err)
			}
			for _, e := range m.Accepted {
				if err := validateTraces(rt.Kernel, e.Traces); err != nil {
					return sendErr(err)
				}
			}
			deltas, err := shard.RunEpoch(m.Epoch, m.Accepted, nil)
			if err != nil {
				return sendErr(err)
			}
			if err := sendDelta(m.Epoch, deltas); err != nil {
				return err
			}
		case frameRestore:
			m, err := DecodeRestore(payload)
			if err != nil {
				return sendErr(err)
			}
			if err := restore(m.States); err != nil {
				return sendErr(err)
			}
			vms := make([]int, 0, len(m.States))
			for _, st := range m.States {
				vms = append(vms, st.VM)
				crashKnown[st.VM] = len(st.Crashes)
			}
			logf("adopting VMs %v for epoch %d", vms, m.Epoch)
			deltas, err := shard.RunEpoch(m.Epoch, nil, vms)
			if err != nil {
				return sendErr(err)
			}
			if err := sendDelta(m.Epoch, deltas); err != nil {
				return err
			}
		case frameModelPrep:
			m, err := DecodeModelMsg(payload)
			if err != nil {
				return sendErr(err)
			}
			if _, ok := rt.Cfg.Server.(serve.ModelSwapper); !ok {
				return sendErr(fmt.Errorf("cluster: serving surface cannot hot-swap models"))
			}
			// Drain before acking: once every worker acks, the coordinator
			// commits, and no in-flight query may straddle the generation
			// change (the drain is the single-host swap barrier's).
			shard.DrainPredictions()
			staged, err := pmm.Load(bytes.NewReader(m.Model))
			if err != nil {
				return sendErr(fmt.Errorf("cluster: staging model v%d: %w", m.Version, err))
			}
			stagedModel, stagedVersion = staged, m.Version
			logf("model v%d staged", m.Version)
			if err := send(frameAck, nil); err != nil {
				return err
			}
		case frameModelCommit:
			m, err := DecodeModelMsg(payload)
			if err != nil {
				return sendErr(err)
			}
			if stagedModel == nil || stagedVersion != m.Version {
				return sendErr(fmt.Errorf("cluster: commit for model v%d but v%d staged", m.Version, stagedVersion))
			}
			sw := rt.Cfg.Server.(serve.ModelSwapper) // checked at prep
			// Swapped=false means a co-tenant of a shared server won the
			// race to this version — identical bytes, so it is equivalent.
			if _, err := sw.SwapModel(stagedModel, stagedVersion); err != nil {
				return sendErr(fmt.Errorf("cluster: hot-swap model v%d: %w", stagedVersion, err))
			}
			logf("model v%d live", stagedVersion)
			stagedModel, stagedVersion = nil, 0
			if err := send(frameAck, nil); err != nil {
				return err
			}
		case frameDone:
			states, _ := shard.FinalDrain() // a local shard's drain cannot fail
			for i := range states {
				states[i].Preds = nil // see FinalMsg
			}
			return send(frameFinal, AppendFinal(nil, FinalMsg{States: states}))
		case frameErr:
			em, _ := DecodeErr(payload)
			return fmt.Errorf("cluster: coordinator failed: %s", em.Msg)
		default:
			return fmt.Errorf("%w: unexpected frame 0x%02x", ErrBadMessage, typ)
		}
	}
}

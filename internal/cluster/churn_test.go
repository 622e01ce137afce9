// Worker churn in Snowplow mode, and version skew at Assign. The partition
// tests in fault_test.go run Syzkaller campaigns, where a VM carries no
// prediction window; these cover the state only a Snowplow VM has.

package cluster

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/faultinject"
	"github.com/repro/snowplow/internal/fuzzer"
)

// TestClusterSurvivesSeveredWorkerSnowplow severs one of two workers in
// Snowplow mode. The survivor adopts the lost VMs between running its own
// epoch and receiving that epoch's merge outcome, so the re-run must leave
// its own VMs' epoch-local entries findable: a VM's prediction window keys
// on entry identity, and an entry rebuilt under a new pointer orphans its
// prediction — the VM re-queries, PMMQueries and the RNG schedule move, and
// churn stops being invisible. The early sever points matter: a VM queries
// an epoch-local entry often only while the corpus is still mostly seeds.
func TestClusterSurvivesSeveredWorkerSnowplow(t *testing.T) {
	cfg := baseConfig(51, 120_000, 4)
	cfg.Mode = fuzzer.ModeSnowplow
	spec := SpecFromConfig(withJournalFlag(cfg), testModelBytes(t))
	want, err := RunLocal(Config{Spec: spec}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.PMMQueries == 0 {
		t.Fatal("fault-free campaign issued no PMM queries")
	}
	// hello(1) + ack(1) + one delta per epoch: the victim dies on its first
	// delta, its third, and around epoch 8 of ~32.
	for _, writes := range []int{3, 5, 10} {
		got, err := RunLocal(Config{Spec: spec}, 2, WorkerOptions{
			Dial: faultyDial(faultinject.LinkOptions{SeverAfterWrites: writes}, 1),
		})
		if err != nil {
			t.Fatalf("sever after %d writes: campaign did not survive: %v", writes, err)
		}
		requireSameResult(t, fmt.Sprintf("snowplow/sever-after-%d", writes), want, got)
	}
}

// TestWorkerRejectsSeedPassAssign plays a coordinator built before the
// reconciler owned the seed pass: it assigns with SeedPass set and waits
// for a seed delta. The worker must answer with a named error at once
// rather than leave both ends to their I/O timeouts.
func TestWorkerRejectsSeedPassAssign(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reply := make(chan string, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			reply <- err.Error()
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		// The zero framer is the v1 wire a legacy worker speaks.
		var fr framer
		if _, _, _, err := fr.readFrame(conn); err != nil { // hello
			reply <- err.Error()
			return
		}
		cfg := baseConfig(51, 10_000, 1)
		assign := Assign{
			Spec:     SpecFromConfig(cfg, nil),
			VMs:      []int{0},
			States:   []fuzzer.VMState{fuzzer.InitialVMState(cfg, 0)},
			SeedPass: true,
		}
		if _, err := fr.writeFrame(conn, frameAssign, WireV1.AppendAssign(nil, assign)); err != nil {
			reply <- err.Error()
			return
		}
		typ, payload, _, err := fr.readFrame(conn)
		if err != nil {
			reply <- err.Error()
			return
		}
		if typ != frameErr {
			reply <- "worker acked a seed-pass assignment"
			return
		}
		em, _ := DecodeErr(payload)
		reply <- em.Msg
	}()
	werr := RunWorker(ln.Addr().String(), WorkerOptions{LegacyWire: true, IOTimeout: 30 * time.Second})
	if werr == nil || !strings.Contains(werr.Error(), "seed pass") {
		t.Fatalf("worker error %v, want a seed-pass rejection", werr)
	}
	if msg := <-reply; !strings.Contains(msg, "seed pass") {
		t.Fatalf("coordinator read %q, want the worker's seed-pass rejection", msg)
	}
}

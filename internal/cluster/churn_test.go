// Worker churn in Snowplow mode, and version skew at Hello. The partition
// tests in fault_test.go run Syzkaller campaigns, where a VM carries no
// prediction window; these cover the state only a Snowplow VM has.

package cluster

import (
	"errors"
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

// TestCoordinatorRefusesProtocol2 plays workers built for older protocols
// against a real coordinator: once with each Hello form protocol 2 sent
// (the 8-byte one and the 24-byte one advertising wire 2 and flate level
// 9) and once each with protocol 3's and 4's. The coordinator must fail with
// ErrBadVersion and tell the peer why, naming both versions, rather than
// misread the Hello or leave the worker to its I/O timeout.
func TestCoordinatorRefusesProtocol2(t *testing.T) {
	spec := SpecFromConfig(baseConfig(51, 10_000, 1), nil)
	for _, hello := range [][]byte{words(2), words(2, 2, 9), words(3), words(4)} {
		co, err := NewCoordinator(Config{Spec: spec, Workers: 1, IOTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		runErr := make(chan error, 1)
		go func() {
			_, err := co.Run()
			runErr <- err
		}()
		conn, err := net.Dial("tcp", co.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		var fr framer
		if _, err := fr.writeFrame(conn, frameHello, hello); err != nil {
			t.Fatal(err)
		}
		typ, payload, _, err := fr.readFrame(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%d-byte hello: reading the reply: %v", len(hello), err)
		}
		if typ != frameErr {
			t.Fatalf("%d-byte hello: coordinator replied with frame 0x%02x, want an error", len(hello), typ)
		}
		em, err := DecodeErr(payload)
		want := fmt.Sprintf("protocol version %d, want 5", hello[0])
		if err != nil || !strings.Contains(em.Msg, want) {
			t.Fatalf("%d-byte hello: peer read %q (%v), want %q", len(hello), em.Msg, err, want)
		}
		if err := <-runErr; !errors.Is(err, ErrBadVersion) {
			t.Fatalf("%d-byte hello: Run returned %v, want ErrBadVersion", len(hello), err)
		}
	}
}

// WAN-wire determinism suite: the wire protocol — sparse varint message
// encoding plus per-frame flate — must not move a single merged bit.
// Compressed clusters, campaigns resumed from compressed checkpoints and
// campaigns run over a bandwidth-shaped link all have to land on exactly
// the single-host digests; the only thing the wire stage may change is the
// byte count, which Result.Wire makes observable.

package cluster

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/repro/snowplow/internal/faultinject"
)

// TestCompressLevelValidated pins Config.Compress to the flate range:
// a level outside 0-9 is refused when the coordinator is built, with an
// error naming the range, instead of being clamped or failing a worker
// mid-handshake.
func TestCompressLevelValidated(t *testing.T) {
	spec := SpecFromConfig(baseConfig(41, 10_000, 1), nil)
	for _, tc := range []struct {
		level int
		ok    bool
	}{{-1, false}, {0, true}, {9, true}, {10, false}} {
		co, err := NewCoordinator(Config{Spec: spec, Workers: 1, Compress: tc.level})
		if co != nil {
			co.ln.Close()
		}
		switch {
		case tc.ok && err != nil:
			t.Errorf("compress %d refused: %v", tc.level, err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), "0-9")):
			t.Errorf("compress %d: error %v, want one naming the range 0-9", tc.level, err)
		}
	}
}

// TestClusterResumeFromCompressedCheckpoint checkpoints a compressed-wire
// campaign (flate-compressed checkpoint files) and resumes mid-campaign
// onto both a compressed and an uncompressed fleet of a different size;
// both must finish with the uninterrupted run's digests.
func TestClusterResumeFromCompressedCheckpoint(t *testing.T) {
	cfg := baseConfig(43, 200_000, 4)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)

	var checkpoints [][]byte
	full, err := RunLocal(Config{
		Spec:            spec,
		Compress:        6,
		CheckpointEvery: 8,
		OnCheckpoint:    func(epoch int64, data []byte) { checkpoints = append(checkpoints, data) },
	}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoints) < 2 {
		t.Fatalf("campaign produced %d checkpoints, want at least 2", len(checkpoints))
	}
	mid := checkpoints[len(checkpoints)/2]
	for _, compress := range []int{6, 0} {
		got, err := ResumeLocal(Config{Spec: spec, Compress: compress}, mid, 4, WorkerOptions{})
		if err != nil {
			t.Fatalf("resume compress=%d: %v", compress, err)
		}
		requireSameResult(t, "resume-compressed", full, got)
	}
}

// shapedDial wraps every worker connection in a bandwidth/latency-shaped
// link, the loopback stand-in for a WAN path.
func shapedDial(opts faultinject.LinkOptions) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return faultinject.NewLink(conn, opts), nil
	}
}

// TestClusterShapedLinkDeterminism runs a compressed campaign over links
// shaped to 4 MiB/s with 200µs of per-frame latency: slower wall-clock,
// same digests — the shaping stage must be invisible to the merge.
func TestClusterShapedLinkDeterminism(t *testing.T) {
	cfg := baseConfig(47, 120_000, 4)
	spec := SpecFromConfig(withJournalFlag(cfg), nil)
	want, err := RunLocal(Config{Spec: spec}, 2, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunLocal(Config{Spec: spec, Compress: 6}, 2, WorkerOptions{
		Dial: shapedDial(faultinject.LinkOptions{Bandwidth: 4 << 20, Latency: 200 * time.Microsecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "shaped-link", want, got)
}

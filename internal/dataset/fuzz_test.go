package dataset

import (
	"bytes"
	"strings"
	"testing"

	"github.com/repro/snowplow/internal/kernel"
)

// validDatasetText is a well-formed single-example dataset for the 6.8
// kernel, used both as a fuzz seed and as the round-trip fixture.
const validDatasetText = `snowplow-dataset v1 examples=1
example base=0
r0 = open("./file0", 0x42, 0x1ff)
read(r0, &b"00ff", 0x2)
endprog
slots 0:1 1:2
targets 1 2
`

// FuzzDatasetDecode feeds arbitrary bytes to the dataset loader: malformed
// input must produce an error, never a panic, and anything accepted must
// survive a Save/Load round trip (the dataset is the §3.1 pipeline's
// persistence boundary).
func FuzzDatasetDecode(f *testing.F) {
	k := kernel.MustBuild("6.8")

	f.Add([]byte(validDatasetText))
	f.Add([]byte(""))
	f.Add([]byte("snowplow-dataset v1 examples=0\n"))
	f.Add([]byte("not a dataset\n"))
	f.Add([]byte("snowplow-dataset v1 examples=1\nexample base=zzz\n"))
	f.Add([]byte(strings.Replace(validDatasetText, "slots 0:1 1:2", "slots 9:9", 1)))   // slot out of range
	f.Add([]byte(strings.Replace(validDatasetText, "targets 1 2", "targets 999999", 1))) // target out of range
	f.Add([]byte(strings.Replace(validDatasetText, "endprog\n", "", 1)))                 // truncated program
	f.Add([]byte(validDatasetText + validDatasetText[20:]))                              // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data), k)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatalf("accepted dataset fails to save: %v", err)
		}
		saved := buf.String()
		d2, err := Load(&buf, k)
		if err != nil {
			t.Fatalf("saved dataset does not reload: %v", err)
		}
		if len(d2.Examples) != len(d.Examples) {
			t.Fatalf("round trip changed example count: %d -> %d", len(d.Examples), len(d2.Examples))
		}
		// Save is canonical: a reloaded dataset saves to the same bytes.
		var buf2 bytes.Buffer
		if err := d2.Save(&buf2); err != nil {
			t.Fatalf("reloaded dataset fails to save: %v", err)
		}
		if buf2.String() != saved {
			t.Fatalf("round trip is not a fixed point:\n%s\n---\n%s", saved, buf2.String())
		}
	})
}

// TestLoadRejectsMalformedFraming pins the framing checks: the header's
// example count must match what follows (a file cut at an example boundary
// is otherwise a smaller valid dataset), and the slots/targets keywords
// must stand alone.
func TestLoadRejectsMalformedFraming(t *testing.T) {
	k := kernel.MustBuild("6.8")
	two := strings.Replace(validDatasetText, "examples=1", "examples=2", 1) + validDatasetText[strings.Index(validDatasetText, "example base"):]
	if d, err := Load(strings.NewReader(two), k); err != nil || len(d.Examples) != 2 {
		t.Fatalf("two-example dataset: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(validDatasetText, "examples=1", "examples=2", 1), // truncated
		strings.Replace(two, "examples=2", "examples=1", 1),              // count too low
		strings.Replace(validDatasetText, "examples=1", "examples=-1", 1),
		strings.Replace(validDatasetText, "examples=1", "examples=", 1),
		strings.Replace(validDatasetText, " examples=1", "", 1),
		strings.Replace(validDatasetText, "slots 0:1", "slotsx 0:1", 1),
		strings.Replace(validDatasetText, "targets 1", "targets1", 1),
	} {
		if _, err := Load(strings.NewReader(bad), k); err == nil {
			t.Errorf("Load accepted malformed framing:\n%s", bad)
		}
	}
}

func TestLoadRejectsOutOfRangeSlotsAndTargets(t *testing.T) {
	k := kernel.MustBuild("6.8")
	for _, bad := range []string{
		strings.Replace(validDatasetText, "slots 0:1 1:2", "slots 5:0", 1),
		strings.Replace(validDatasetText, "slots 0:1 1:2", "slots 0:99", 1),
		strings.Replace(validDatasetText, "slots 0:1 1:2", "slots -1:0", 1),
		strings.Replace(validDatasetText, "targets 1 2", "targets 99999999", 1),
		strings.Replace(validDatasetText, "targets 1 2", "targets -5", 1),
	} {
		if _, err := Load(strings.NewReader(bad), k); err == nil {
			t.Errorf("Load accepted out-of-range reference:\n%s", bad)
		}
	}
	if _, err := Load(strings.NewReader(validDatasetText), k); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
}

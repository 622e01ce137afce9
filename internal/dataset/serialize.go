package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/repro/snowplow/internal/exec"
	"github.com/repro/snowplow/internal/kernel"
	"github.com/repro/snowplow/internal/prog"
)

// Save writes the dataset in a line-oriented text format. Traces are not
// stored: execution is deterministic, so Load re-derives them by running
// each base test on the same kernel version.
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "snowplow-dataset v1 examples=%d\n", len(d.Examples))
	for _, ex := range d.Examples {
		fmt.Fprintf(bw, "example base=%d\n", ex.BaseIdx)
		bw.WriteString(ex.Prog.Serialize())
		bw.WriteString("endprog\n")
		bw.WriteString("slots")
		for _, s := range ex.Slots {
			fmt.Fprintf(bw, " %d:%d", s.Call, s.Slot)
		}
		bw.WriteByte('\n')
		bw.WriteString("targets")
		for _, t := range ex.Targets {
			fmt.Fprintf(bw, " %d", t)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Load reads a dataset written by Save and re-executes each base test on k
// to reconstruct its traces.
func Load(r io.Reader, k *kernel.Kernel) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("dataset: empty input")
	}
	countText, ok := strings.CutPrefix(sc.Text(), "snowplow-dataset v1 examples=")
	want, err := strconv.Atoi(countText)
	if !ok || err != nil || want < 0 {
		return nil, fmt.Errorf("dataset: bad header %q", sc.Text())
	}
	d := &Dataset{}
	exe := exec.New(k)
	traceCache := map[string][][]kernel.BlockID{}
	progCache := map[string]*prog.Prog{}
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "example base=") {
			return nil, fmt.Errorf("dataset: expected example header, got %q", line)
		}
		baseIdx, err := strconv.Atoi(strings.TrimPrefix(line, "example base="))
		if err != nil {
			return nil, fmt.Errorf("dataset: bad base index: %w", err)
		}
		var progText strings.Builder
		for sc.Scan() {
			if sc.Text() == "endprog" {
				break
			}
			progText.WriteString(sc.Text())
			progText.WriteByte('\n')
		}
		text := progText.String()
		p, ok := progCache[text]
		if !ok {
			p, err = prog.Parse(k.Target, text)
			if err != nil {
				return nil, fmt.Errorf("dataset: base program: %w", err)
			}
			progCache[text] = p
		}
		traces, ok := traceCache[text]
		if !ok {
			res, err := exe.Run(p)
			if err != nil {
				return nil, fmt.Errorf("dataset: re-executing base: %w", err)
			}
			traces = res.CallTraces
			traceCache[text] = traces
		}
		ex := &Example{BaseIdx: baseIdx, Prog: p, Traces: traces}
		slotToks, ok := fieldsAfter(sc, "slots")
		if !ok {
			return nil, fmt.Errorf("dataset: missing slots line")
		}
		for _, tok := range slotToks {
			ci, si, ok := strings.Cut(tok, ":")
			if !ok {
				return nil, fmt.Errorf("dataset: bad slot %q", tok)
			}
			c, err1 := strconv.Atoi(ci)
			s, err2 := strconv.Atoi(si)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("dataset: bad slot %q", tok)
			}
			// Slot references outside the base program's mutation surface
			// would poison the training pipeline (qgraph indexes by slot);
			// reject them here rather than panic later.
			if c < 0 || c >= len(p.Calls) || s < 0 || s >= len(p.Calls[c].Meta.Slots()) {
				return nil, fmt.Errorf("dataset: slot %q out of range for base program", tok)
			}
			ex.Slots = append(ex.Slots, prog.GlobalSlot{Call: c, Slot: s})
		}
		targetToks, ok := fieldsAfter(sc, "targets")
		if !ok {
			return nil, fmt.Errorf("dataset: missing targets line")
		}
		for _, tok := range targetToks {
			t, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("dataset: bad target %q", tok)
			}
			// Target blocks must exist in the kernel the dataset is being
			// loaded against; kernel.Block panics on unknown IDs.
			if t < 0 || t >= k.NumBlocks() {
				return nil, fmt.Errorf("dataset: target %d outside kernel (%d blocks)", t, k.NumBlocks())
			}
			ex.Targets = append(ex.Targets, kernel.BlockID(t))
		}
		d.Examples = append(d.Examples, ex)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	// The header's count is what catches a file cut at an example boundary.
	if len(d.Examples) != want {
		return nil, fmt.Errorf("dataset: header promises %d examples, found %d", want, len(d.Examples))
	}
	return d, nil
}

// fieldsAfter scans the next line and, if its first field is keyword,
// returns the fields after it.
func fieldsAfter(sc *bufio.Scanner, keyword string) ([]string, bool) {
	if !sc.Scan() {
		return nil, false
	}
	f := strings.Fields(sc.Text())
	if len(f) == 0 || f[0] != keyword {
		return nil, false
	}
	return f[1:], true
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// The verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges new against old for one end-to-end metric. It is worse
// when new's median is worse than old's by more than bound of old's. When a
// side's own range is wider than the bound and the two ranges overlap, the
// runs cannot tell, and the row is unresolved rather than ok or worse.
func verdict(d metricDecl, old, new sample) string {
	spread := func(s sample) float64 { return ratio(s.Max-s.Min, s.Value) }
	if (spread(old) > d.Bound || spread(new) > d.Bound) && old.Min <= new.Max && new.Min <= old.Max {
		return verdictUnresolved
	}
	worseBy := ratio(new.Value-old.Value, old.Value)
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	if worseBy > d.Bound {
		return verdictWorse
	}
	return verdictOK
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one row per end-to-end metric and workload present in
// both files and returns 1 if any row is worse or a workload's failed share
// grew, 2 if the files cannot be compared.
func compareFiles(oldPath, newPath, manifestPath string, stdout, stderr io.Writer) int {
	m, err := loadManifest(manifestPath)
	if err == nil {
		err = m.validate()
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: manifest:", err)
		return 2
	}
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	new, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if old.Sizes != new.Sizes || old.Seconds != new.Seconds {
		fmt.Fprintln(stderr, "benchmark: the two results were measured at different sizes or run lengths")
		return 2
	}
	if old.Host.CPU != new.Host.CPU || old.Host.GOMAXPROCS != new.Host.GOMAXPROCS {
		fmt.Fprintf(stdout, "note: hosts differ (%s x%d, %s x%d); timings do not compare\n",
			old.Host.CPU, old.Host.GOMAXPROCS, new.Host.CPU, new.Host.GOMAXPROCS)
	}
	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tnew/old\tbound\tverdict")
	for _, nw := range new.Workloads {
		ow := old.workload(nw.Name)
		if ow == nil {
			continue
		}
		for _, d := range m.EndToEnd {
			o, okOld := ow.EndToEnd[d.Name]
			n, okNew := nw.EndToEnd[d.Name]
			if !okOld || !okNew {
				continue
			}
			v := verdict(d, o, n)
			if v == verdictWorse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.3f of %.4f\t%.2f\t%s\n",
				nw.Name, d.Name, o.Value, n.Value, d.Unit, ratio(n.Value, o.Value), o.Value, d.Bound, v)
		}
		oldShare, newShare := ratio(float64(ow.Failed), float64(ow.Attempted)), ratio(float64(nw.Failed), float64(nw.Attempted))
		if newShare > oldShare || !nw.Correct {
			bad++
			fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t%d of %d\t\t\t\t%s\n", nw.Name, ow.Failed, ow.Attempted, nw.Failed, nw.Attempted, verdictWorse)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if bad > 0 {
		return 1
	}
	return 0
}

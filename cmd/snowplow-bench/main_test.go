package main

import (
	"os"
	"strings"
	"testing"
)

// TestSelectGroups pins the -experiment name check: a list naming a removed
// or misspelt experiment is refused whole, instead of running the entries
// that do match and exiting 0.
func TestSelectGroups(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		first []string // first name of each selected group, in run order
		bad   string   // the entry the error must name, when the spec is rejected
	}{
		{spec: "stats,perf", bad: `"perf"`},
		{spec: "tabel1,fig6", bad: `"tabel1"`},
		{spec: "", bad: `""`},
		{spec: " table1 ", first: []string{"table1"}},
		{spec: "table5,table3,stats", first: []string{"stats", "table2", "table5"}},
		{spec: "table2,table4", first: []string{"table2"}},
		{spec: "all", first: []string{"stats", "table1", "fig6", "table2", "table5", "wire", "ablations", "faults", "tenants", "online"}},
	} {
		sel, err := selectGroups(tc.spec)
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("selectGroups(%q) = %v; want an error naming %s", tc.spec, err, tc.bad)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectGroups(%q): %v", tc.spec, err)
			continue
		}
		var got []string
		for _, g := range sel {
			got = append(got, g.names[0])
		}
		if strings.Join(got, ",") != strings.Join(tc.first, ",") {
			t.Errorf("selectGroups(%q) selected %v, want %v", tc.spec, got, tc.first)
		}
	}
}

// TestDocListsExperiments keeps the package doc's experiment list in step
// with the groups table the flag help and the name check are built from.
func TestDocListsExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "package main")
	doc = strings.Join(strings.Fields(strings.ReplaceAll(doc, "//", " ")), " ")
	if want := strings.Join(experimentNames(), ", "); !strings.Contains(doc, want) {
		t.Errorf("package doc does not list the experiments as %q:\n%s", want, doc)
	}
}

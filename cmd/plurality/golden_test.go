package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current output")

// goldenRuns covers every workload, every model (synchronous through
// -protocol two-choices-sync), every engine, the leap tuning flags, an
// adversary, an annealed topology, pooled trials and the core trace. Each
// row runs twice, as text and as -json.
var goldenRuns = [][]string{
	{"-protocol", "core", "-n", "1000", "-k", "3", "-workload", "biased", "-bias", "1", "-seed", "3"},
	{"-protocol", "two-choices", "-n", "2000", "-k", "3", "-workload", "gapsqrt", "-z", "2", "-seed", "4"},
	{"-protocol", "usd", "-n", "2000", "-k", "3", "-workload", "gapsqrtpolylog", "-z", "1.5", "-seed", "5"},
	{"-protocol", "3-majority", "-n", "2000", "-k", "3", "-workload", "tinygap", "-z", "1", "-seed", "6"},
	{"-protocol", "voter", "-n", "300", "-k", "3", "-workload", "uniform", "-seed", "7"},
	{"-protocol", "two-choices", "-n", "2000", "-k", "4", "-workload", "zipf", "-zipf-s", "1.1", "-seed", "8"},
	{"-protocol", "two-choices", "-model", "sequential", "-n", "2000", "-k", "2", "-seed", "9"},
	{"-protocol", "two-choices", "-model", "poisson", "-n", "2000", "-k", "2", "-seed", "9"},
	{"-protocol", "two-choices-sync", "-n", "2000", "-k", "3", "-seed", "11"},
	{"-protocol", "onebit", "-n", "2000", "-k", "3", "-seed", "12"},
	{"-protocol", "two-choices", "-engine", "auto", "-n", "5000", "-k", "3", "-seed", "13"},
	{"-protocol", "two-choices", "-engine", "per-node", "-n", "5000", "-k", "3", "-seed", "13"},
	{"-protocol", "usd", "-engine", "occupancy", "-model", "poisson", "-n", "5000", "-k", "4", "-seed", "14"},
	{"-protocol", "two-choices", "-engine", "leap", "-n", "1000000000000", "-k", "4", "-seed", "15"},
	{"-protocol", "two-choices", "-engine", "leap", "-leap-eps", "0.05", "-n", "1000000000000", "-k", "4", "-seed", "15"},
	{"-protocol", "two-choices", "-engine", "leap", "-ode-theta", "-1", "-n", "10000000000", "-k", "4", "-seed", "15"},
	{"-protocol", "two-choices", "-model", "poisson", "-adversary", "corrupt", "-budget", "12", "-n", "4000", "-k", "2", "-bias", "1", "-seed", "16"},
	{"-protocol", "two-choices", "-model", "poisson", "-topology", "annealed:8", "-n", "20000", "-k", "3", "-seed", "17"},
	{"-protocol", "usd", "-n", "2000", "-k", "3", "-trials", "3", "-seed", "18"},
	{"-protocol", "core", "-n", "1000", "-k", "2", "-bias", "1", "-trace", "-seed", "19"},
}

// TestCLIGolden pins the command's exact stdout over goldenRuns. Run with
// -update to rewrite testdata/golden.txt after an intended output change.
func TestCLIGolden(t *testing.T) {
	var doc strings.Builder
	for _, args := range goldenRuns {
		for _, a := range [][]string{args, append(args[:len(args):len(args)], "-json")} {
			var buf bytes.Buffer
			if err := run(a, &buf); err != nil {
				t.Fatalf("plurality %s: %v", strings.Join(a, " "), err)
			}
			doc.WriteString("$ plurality " + strings.Join(a, " ") + "\n" + buf.String())
		}
	}
	const path = "testdata/golden.txt"
	if *update {
		if err := os.WriteFile(path, []byte(doc.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.SplitAfter(doc.String(), "\n")
	lines := strings.SplitAfter(string(want), "\n")
	for i := range max(len(got), len(lines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n  got  %q\n  want %q", path, i+1, g, w)
		}
	}
}

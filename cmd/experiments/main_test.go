package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"e1", "e6", "e12", "ab1", "ab3"} {
		if !strings.Contains(out, id+" ") && !strings.Contains(out, id+"  ") {
			t.Errorf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestRunSingleQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "e8", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E8:") || !strings.Contains(out, "shape:") {
		t.Fatalf("output missing table/shape:\n%s", out)
	}
	if !strings.Contains(out, "completed in") {
		t.Fatalf("missing timing footer:\n%s", out)
	}
}

func TestRunMultipleIDs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "e3, e8", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== e3") || !strings.Contains(out, "== e8") {
		t.Fatalf("expected both experiments:\n%s", out)
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "e99"}, &buf); err == nil {
		t.Fatal("unknown ID should fail")
	}
}

func TestRunAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep takes seconds")
	}
	var buf bytes.Buffer
	if err := run([]string{"-run", "ab2", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AB2:") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestSweepList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sweep", "list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"logn-scaling", "latency", "churn", "topology"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("sweep list missing %s:\n%s", name, buf.String())
		}
	}
}

func TestSweepUnknownName(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sweep", "warp-drive"}, &buf); err == nil {
		t.Fatal("unknown sweep should fail")
	}
}

// TestSweepSmokeRunAndBaseline drives one named sweep end to end with a
// trial override: artifact written, gates printed, and a self-baseline diff
// that must come back clean.
func TestSweepSmokeRunAndBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dir := t.TempDir()
	out := dir + "/exp.json"
	var buf bytes.Buffer
	if err := run([]string{"-sweep", "topology", "-smoke", "-trials", "2", "-out", out}, &buf); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "gate all-converged") {
		t.Fatalf("missing gate output:\n%s", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var bundle struct {
		Schema  string `json:"schema"`
		Reports map[string]struct {
			Schema string `json:"schema"`
			Cells  []struct {
				Label string `json:"label"`
			} `json:"cells"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(data, &bundle); err != nil {
		t.Fatalf("invalid bundle: %v\n%s", err, data)
	}
	rep, ok := bundle.Reports["topology"]
	if !ok || len(rep.Cells) != 5 {
		t.Fatalf("bundle: %s", data)
	}

	// The run is deterministic, so diffing against itself must be clean.
	buf.Reset()
	if err := run([]string{"-sweep", "topology", "-smoke", "-trials", "2", "-baseline", out}, &buf); err != nil {
		t.Fatalf("self-baseline diff failed: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "baseline: clean") {
		t.Fatalf("missing clean-baseline line:\n%s", buf.String())
	}
}

func TestSweepBadBaselinePath(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sweep", "topology", "-baseline", "/nonexistent.json"}, &buf); err == nil {
		t.Fatal("missing baseline file should fail")
	}
}

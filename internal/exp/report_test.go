package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkReport(cells ...CellResult) *Report {
	return &Report{Schema: SchemaVersion, Sweep: "t", Cells: cells}
}

func cell(label string, mean, ciLo, ciHi float64, trials, failures int) CellResult {
	return CellResult{
		Label: label, Params: map[string]string{},
		Trials: trials, Failures: failures,
		Mean: mean, CILo: ciLo, CIHi: ciHi,
	}
}

func TestCompareClean(t *testing.T) {
	base := mkReport(cell("n=100", 50, 48, 52, 5, 0))
	cur := mkReport(cell("n=100", 51, 49, 53, 5, 0))
	if regs := Compare(cur, base, 0.25); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareFlagsMeanRegression(t *testing.T) {
	base := mkReport(cell("n=100", 50, 48, 52, 5, 0))
	cur := mkReport(cell("n=100", 80, 75, 85, 5, 0))
	regs := Compare(cur, base, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "exceeds baseline") {
		t.Fatalf("regressions: %v", regs)
	}
}

// Within the tolerance band, or with overlapping CIs, a slower mean is not
// a regression — both conditions must hold to flag.
func TestCompareToleranceAndCIBothRequired(t *testing.T) {
	base := mkReport(cell("n=100", 50, 48, 52, 5, 0))
	// 10% slower: inside the 25% band even though CIs are disjoint.
	inBand := mkReport(cell("n=100", 55, 54, 56, 5, 0))
	if regs := Compare(inBand, base, 0.25); len(regs) != 0 {
		t.Fatalf("in-band slowdown flagged: %v", regs)
	}
	// 60% slower but with a CI overlapping the baseline's: noisy, not flagged.
	noisy := mkReport(cell("n=100", 80, 51, 109, 5, 0))
	if regs := Compare(noisy, base, 0.25); len(regs) != 0 {
		t.Fatalf("CI-overlapping slowdown flagged: %v", regs)
	}
}

// TestCompareFailureRateNotCount: a run with fewer trials (a -trials
// override) must still flag a cell whose failure *rate* regressed, and a
// proportionally equal rate must not flag.
func TestCompareFailureRateNotCount(t *testing.T) {
	base := mkReport(cell("n=100", 50, 48, 52, 5, 2)) // 40% fail
	worse := mkReport(cell("n=100", 0, 0, 0, 2, 2))   // 100% fail, but count ties baseline
	regs := Compare(worse, base, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "trials failed") {
		t.Fatalf("total convergence loss not flagged: %v", regs)
	}
	same := mkReport(cell("n=100", 50, 48, 52, 10, 4)) // 40% fail again
	if regs := Compare(same, base, 0.25); len(regs) != 0 {
		t.Fatalf("equal failure rate flagged: %v", regs)
	}
}

func TestCompareFlagsMissingCellAndNewFailures(t *testing.T) {
	base := mkReport(
		cell("n=100", 50, 48, 52, 5, 0),
		cell("n=200", 60, 58, 62, 5, 0),
	)
	cur := mkReport(cell("n=100", 50, 48, 52, 5, 2))
	regs := Compare(cur, base, 0.25)
	if len(regs) != 2 {
		t.Fatalf("want missing-cell + failure regressions, got: %v", regs)
	}
	joined := strings.Join(regs, "\n")
	if !strings.Contains(joined, "missing") || !strings.Contains(joined, "trials failed") {
		t.Fatalf("regressions: %v", regs)
	}
}

func TestCompareIgnoresNewCellsAndImprovements(t *testing.T) {
	base := mkReport(cell("n=100", 50, 48, 52, 5, 0))
	cur := mkReport(
		cell("n=100", 20, 19, 21, 5, 0), // faster: fine
		cell("n=400", 90, 88, 92, 5, 0), // new grid point: fine
	)
	if regs := Compare(cur, base, 0.25); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := mkReport()
	cur := mkReport()
	cur.Schema = "plurality-exp/v0"
	if regs := Compare(cur, base, 0.25); len(regs) != 1 || !strings.Contains(regs[0], "schema") {
		t.Fatalf("regressions: %v", regs)
	}
}

// TestCompareSmokeFullMismatch: diffing a full-grid run against a smoke
// baseline must produce one clear diagnostic, not per-cell noise.
func TestCompareSmokeFullMismatch(t *testing.T) {
	base := mkReport(cell("n=256", 50, 48, 52, 5, 0))
	base.Smoke = true
	cur := mkReport(cell("n=8192", 90, 88, 92, 12, 0))
	regs := Compare(cur, base, 0.25)
	if len(regs) != 1 || !strings.Contains(regs[0], "grid mismatch") {
		t.Fatalf("regressions: %v", regs)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b := NewBundle()
	b.Reports["t"] = mkReport(cell("n=100", 50, 48, 52, 5, 0))
	path := filepath.Join(t.TempDir(), "bundle.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := got.Reports["t"]
	if rep == nil || rep.Cells[0].Label != "n=100" || rep.Cells[0].Mean != 50 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestLoadBundleRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := os.WriteFile(path, []byte(`{"schema":"something-else","reports":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("err = %v", err)
	}
	bad := `{"schema":"` + BundleSchemaVersion + `","reports":{"x":{"schema":"nope"}}}`
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(path); err == nil {
		t.Fatal("bad report schema should fail")
	}
}

func TestReportGateHelpers(t *testing.T) {
	r := mkReport()
	r.addGate("a", true, "fine")
	r.addGate("b", false, "broke: %d", 7)
	failed := r.FailedGates()
	if len(failed) != 1 || !strings.Contains(failed[0], "broke: 7") {
		t.Fatalf("failed gates: %v", failed)
	}
}

func TestNamedRegistry(t *testing.T) {
	names := Named()
	if len(names) != 12 {
		t.Fatalf("want 12 named sweeps, got %d", len(names))
	}
	for _, want := range []string{"logn-scaling", "engine-equivalence", "scale", "leap-budget", "leap-calibration", "protocol-race", "latency", "churn", "topology", "topology-equivalence", "adversary-threshold", "net-equivalence"} {
		ns, ok := NamedByName(want)
		if !ok {
			t.Fatalf("missing named sweep %q", want)
		}
		for _, smoke := range []bool{true, false} {
			sw := ns.Build(smoke, 1, 0)
			if sw.Trials <= 0 {
				t.Fatalf("%s smoke=%v: trials %d", want, smoke, sw.Trials)
			}
			if _, err := sw.Compile(); err != nil {
				t.Fatalf("%s smoke=%v does not compile: %v", want, smoke, err)
			}
		}
		if sw := ns.Build(true, 1, 2); sw.Trials != 2 {
			t.Fatalf("%s: trial override ignored", want)
		}
	}
	if _, ok := NamedByName("nope"); ok {
		t.Fatal("unknown sweep resolved")
	}
}

// TestNamedGatesOnTinyRun executes the cheapest named sweep end to end with
// overridden trials so the gate plumbing is covered by go test.
func TestNamedGatesOnTinyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	ns, _ := NamedByName("topology")
	sw := ns.Build(true, 1, 2)
	rep, err := sw.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ns.Check(rep)
	if len(rep.Gates) == 0 {
		t.Fatal("check added no gates")
	}
	for _, g := range rep.Gates {
		if !g.Pass {
			t.Errorf("gate %s failed: %s", g.Name, g.Detail)
		}
	}
}

package bench

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"plurality"
	"plurality/internal/par"
)

func TestRegistryWellFormed(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("registry has %d experiments, want 12", len(all))
	}
	seen := make(map[string]bool)
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e6"); !ok {
		t.Error("e6 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus ID resolved")
	}
}

func TestAblationsRegistry(t *testing.T) {
	for _, e := range Ablations() {
		if e.ID == "" || e.Run == nil {
			t.Errorf("incomplete ablation %+v", e)
		}
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("ablation %s not resolvable via ByID", e.ID)
		}
	}
}

// TestAllExperimentsQuick runs every experiment on its reduced grid: this is
// the harness's end-to-end smoke test and doubles as the check that every
// experiment emits at least one table and one shape line.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite still takes tens of seconds")
	}
	for _, e := range append(All(), Ablations()...) {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(Config{Out: &buf, Quick: true, Seed: 1}); err != nil {
				t.Fatalf("%s failed: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, "shape:") {
				t.Errorf("%s emitted no shape line:\n%s", e.ID, out)
			}
			if !strings.Contains(out, "----") {
				t.Errorf("%s emitted no table:\n%s", e.ID, out)
			}
		})
	}
}

func TestPickHelper(t *testing.T) {
	if got := pick(Config{Quick: true}, 1, 2); got != 1 {
		t.Fatalf("quick pick = %d", got)
	}
	if got := pick(Config{}, 1, 2); got != 2 {
		t.Fatalf("full pick = %d", got)
	}
}

// TestE6CountsHaltedRuns: at seed 300 one core trial of E6a's quick grid
// ends with every node halted before consensus. The table counts it in its
// converged column instead of aborting.
func TestE6CountsHaltedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick e6 grid")
	}
	e, _ := ByID("e6")
	var buf bytes.Buffer
	if err := e.Run(Config{Out: &buf, Quick: true, Seed: 300}); err != nil {
		t.Fatalf("e6 aborted: %v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	table := out[strings.Index(out, "E6a:"):strings.Index(out, "shape:")]
	short := false
	for _, line := range strings.Split(table, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 5 || fields[0][0] < '0' || fields[0][0] > '9' {
			continue
		}
		var conv, trials int
		if _, err := fmt.Sscanf(fields[4], "%d/%d", &conv, &trials); err != nil {
			t.Fatalf("converged column %q: %v", fields[4], err)
		}
		short = short || conv < trials
	}
	if !short {
		t.Fatalf("every E6a trial converged at seed 300; the test needs a seed with a halted run:\n%s", out)
	}
}

// TestReportHelpers: consensus-time medians take only converged runs, and
// the worst-synchronization probe aggregates safely from several workers.
func TestReportHelpers(t *testing.T) {
	reps := []plurality.Report{
		{Converged: true, Winner: 0, ConsensusTime: 3, Time: 3},
		{Converged: true, Winner: 1, ConsensusTime: 1, Time: 1},
		{Converged: false, Winner: 0, Time: 100},
	}
	if got := median(reps, converged, consensus); got != 2 {
		t.Errorf("converged median = %v, want 2", got)
	}
	if got := median(reps, all, func(r plurality.Report) float64 { return r.Time }); got != 3 {
		t.Errorf("median over all = %v, want 3", got)
	}
	if got := share(reps, won); got != "1/3" {
		t.Errorf("wins = %s, want 1/3", got)
	}

	var w worstSync
	err := par.ForEach(4, 100, func(i int) error {
		w.probe(plurality.CoreProbe{Active: 100, PoorlySynced: i, Spread90: int64(i)})
		return nil
	})
	if err != nil || w.poor != 0.99 || w.spread != 99 {
		t.Errorf("worst = (%v, %d), err %v; want (0.99, 99)", w.poor, w.spread, err)
	}
}

// TestImportGuard keeps the tables on the public Job API: the package's
// own files may import from internal/ only the output helpers (stats,
// trace) and what the two model studies drive (E8: sched, rng, par; E10a:
// urn, rng).
func TestImportGuard(t *testing.T) {
	allowed := map[string]bool{"stats": true, "trace": true, "urn": true, "sched": true, "rng": true, "par": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if pkg, ok := strings.CutPrefix(path, "plurality/internal/"); ok && !allowed[pkg] {
				t.Errorf("%s imports %s; run protocols through plurality.NewJob instead", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no package files found")
	}
}

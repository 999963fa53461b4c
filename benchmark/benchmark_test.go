package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// declaration is the part of BENCHMARK.json the program must agree with.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func declared(t *testing.T) (workloadNames []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range d.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range d.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloadNames, endToEnd, perLayer
}

// printed prints results the way the command does and returns, per
// workload, the metric names it printed with their units; it fails the test
// unless the final line reports every check passed.
func printed(t *testing.T, results []result, single bool) map[string]map[string]string {
	t.Helper()
	var buf bytes.Buffer
	ok := printResults(&buf, results, single)
	out := map[string]map[string]string{}
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "#") || strings.HasPrefix(last, "{") {
			if strings.Contains(last, "FAILED") {
				t.Error(last)
			}
			continue
		}
		f := strings.Fields(last)
		if len(f) != 5 || !strings.HasPrefix(f[4], "samples=") {
			t.Fatalf("malformed metric line %q", last)
		}
		if out[f[0]] == nil {
			out[f[0]] = map[string]string{}
		}
		out[f[0]][f[1]] = f[3]
	}
	var final struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if !ok || !final.Correct || final.Failed != 0 || final.Attempted < 1 {
		t.Errorf("final line %q: want correct with no failures", last)
	}
	return out
}

func TestWorkloadsAtTestSize(t *testing.T) {
	names, endToEnd, perLayer := declared(t)
	var registered []string
	for _, w := range workloads {
		registered = append(registered, w.name)
	}
	if !slices.Equal(names, registered) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program runs %v", names, registered)
	}
	ctx := context.Background()
	cfg := config{seed: 7, minRounds: 1, size: testSize}

	first, _, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for w, got := range printed(t, first, false) {
		if !reflect.DeepEqual(got, endToEnd) {
			t.Errorf("%s printed %v, BENCHMARK.json declares the end-to-end metrics %v", w, got, endToEnd)
		}
	}
	second, _, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].Counts, second[i].Counts) {
			t.Errorf("%s: deterministic counts differ between two runs with one seed: %v vs %v",
				first[i].Workload, first[i].Counts, second[i].Counts)
		}
	}

	cfg.trace = true
	traced, tr, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	union := map[string]string{}
	for _, got := range printed(t, traced, false) {
		for name, unit := range got {
			union[name] = unit
		}
	}
	if !reflect.DeepEqual(union, perLayer) {
		t.Errorf("traced run printed %v, BENCHMARK.json declares the per-layer metrics %v", union, perLayer)
	}

	for _, s := range tr.spans {
		if s.End < s.Start || s.Self < 0 {
			t.Errorf("span %d %q: [%d, %d] self %d", s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent == 0 {
			continue
		}
		if p := tr.spans[s.Parent-1]; s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %q [%d, %d] is not inside its parent %d %q [%d, %d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	if len(tr.stages) == 0 {
		t.Error("the traced run recorded no replay stages")
	}
	for _, st := range tr.stages {
		if st.Count < 1 || st.Self < 0 || st.Parent < 1 || st.Parent > len(tr.spans) {
			t.Errorf("stage %+v", st)
		}
	}
}

// A traced run of one workload probes the others, so an invocation with
// -workload and -trace 1 reports every per-layer metric.
func TestTracedRunOfOneWorkloadReportsEveryLayer(t *testing.T) {
	_, _, perLayer := declared(t)
	cfg := config{workloads: []string{"collapsed"}, seed: 3, minRounds: 1, trace: true, size: testSize}
	results, _, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := printed(t, results, true)["collapsed"]
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("printed %v, want every declared per-layer metric %v", got, perLayer)
	}
}

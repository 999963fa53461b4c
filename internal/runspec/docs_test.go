package runspec

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameTheTables: docs/API.md's model and engine rows and
// EXPERIMENTS.md's list of shared axes name exactly the tables' values, in
// table order, as TestAPIDocEndpointTable does for the daemon's routes. A
// row added to a table without the docs fails here.
func TestDocsNameTheTables(t *testing.T) {
	for _, tc := range []struct {
		file, prefix string
		want         []string
	}{
		{"../../docs/API.md", "| `model` |", Names(Models)},
		{"../../docs/API.md", "| `engine` |", Names(Engines)},
		{"../../EXPERIMENTS.md", "- `model`:", Names(Models)},
		{"../../EXPERIMENTS.md", "- `engine`:", Names(Engines)},
		{"../../EXPERIMENTS.md", "- `bias`:", Names(Workloads)},
	} {
		doc, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(string(doc), "\n") {
			if rest, ok := strings.CutPrefix(line, tc.prefix); ok {
				// The values end with the table cell or at a semicolon.
				rest, _, _ = strings.Cut(rest, "|")
				rest, _, _ = strings.Cut(rest, ";")
				for _, m := range spelling.FindAllStringSubmatch(rest, -1) {
					got = append(got, m[1])
				}
				break
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s line %q names %q; the table has %q", tc.file, tc.prefix, got, tc.want)
		}
	}
}

// spelling matches one value in a doc: `name` or `"name"`.
var spelling = regexp.MustCompile("`\"?([^`\"]+)\"?`")

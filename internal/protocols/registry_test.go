package protocols

import (
	"os"
	"strings"
	"testing"
)

func TestLookupResolvesCanonicalNamesAndAliases(t *testing.T) {
	for _, spec := range []string{
		"two-choices", "voter", "3-majority", "three-majority",
		"usd", "undecided-state", "undecided",
		"j-majority:3", "jmajority:5", "jmaj:1",
	} {
		d, rule, err := Lookup(spec)
		if err != nil {
			t.Errorf("Lookup(%q): %v", spec, err)
			continue
		}
		if rule == nil || d.Name == "" {
			t.Errorf("Lookup(%q) = %+v, nil rule", spec, d)
		}
		if rule.SampleCount() <= 0 {
			t.Errorf("Lookup(%q): rule samples %d nodes", spec, rule.SampleCount())
		}
	}
}

func TestLookupErrors(t *testing.T) {
	for _, spec := range []string{
		"",               // no name
		"nope",           // unregistered
		"voter:2",        // parameterless family with a parameter
		"j-majority",     // missing required parameter
		"j-majority:x",   // non-numeric parameter
		"j-majority:0",   // out of range
		"j-majority:999", // out of range
	} {
		if _, _, err := Lookup(spec); err == nil {
			t.Errorf("Lookup(%q): no error", spec)
		}
	}
}

// TestDescriptorIntegrity pins the registry's structural invariants: names
// and aliases are unique, every descriptor is fully documented, and every
// race spec resolves (the protocol-race sweep is built from them).
func TestDescriptorIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Registry() {
		for _, name := range append([]string{d.Name}, d.Aliases...) {
			if seen[name] {
				t.Errorf("duplicate registered name %q", name)
			}
			seen[name] = true
		}
		if d.Summary == "" || d.Source == "" || d.Samples == "" {
			t.Errorf("%s: incomplete descriptor metadata: %+v", d.Name, d)
		}
		if (d.Param == "") != (d.ParamName == "") {
			t.Errorf("%s: Param and ParamName must be set together: %q / %q", d.Name, d.Param, d.ParamName)
		}
		if _, _, err := Lookup(d.RaceSpec); err != nil {
			t.Errorf("%s: race spec %q does not resolve: %v", d.Name, d.RaceSpec, err)
		}
		if _, ok := ByName(d.Name); !ok {
			t.Errorf("ByName(%q) failed", d.Name)
		}
	}
	if len(Names()) != len(Registry()) {
		t.Errorf("Names() returned %d entries for %d descriptors", len(Names()), len(Registry()))
	}
}

// TestValidateCounts pins the histogram guards every entry point shares —
// they live on the descriptor so new protocols cannot skip them.
func TestValidateCounts(t *testing.T) {
	d, _, err := Lookup("two-choices")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.ValidateCounts([]int64{600, 400}); err != nil || n != 1000 {
		t.Fatalf("good counts: n=%d err=%v", n, err)
	}
	cases := []struct {
		name   string
		counts []int64
	}{
		{"negative", []int64{5, -1}},
		{"tiny total", []int64{1, 0}},
	}
	for _, tc := range cases {
		if _, err := d.ValidateCounts(tc.counts); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestREADMEProtocolTableInSync: the README's protocol table is generated
// from the registry; a registry change without the regenerated table is a
// doc bug this test catches.
func TestREADMEProtocolTableInSync(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), MarkdownTable()) {
		t.Errorf("README.md protocol table is out of sync with the registry; paste this over it:\n%s",
			MarkdownTable())
	}
}

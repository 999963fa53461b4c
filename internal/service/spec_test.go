package service

import (
	"strings"
	"testing"
)

// TestKeyCanonicalization: equivalent spellings of the same deterministic
// run must share one cache key; fields that change the run must split it.
func TestKeyCanonicalization(t *testing.T) {
	base := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}}

	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Defaults spelled out explicitly: same key.
	explicit := base
	explicit.Seed = 1
	explicit.Trials = 1
	explicit.Model = "sequential"
	explicit.Engine = "auto"
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("explicit defaults changed the key: %s vs %s", k1, k2)
	}

	// CancelOnDisconnect is lifecycle-only and must not split the key —
	// but it is only valid on streaming jobs, so compare there.
	s1 := base
	s1.ObserveInterval = 10
	s2 := s1
	s2.CancelOnDisconnect = true
	ks1, err := s1.Key()
	if err != nil {
		t.Fatal(err)
	}
	ks2, err := s2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ks1 != ks2 {
		t.Errorf("cancelOnDisconnect split the key: %s vs %s", ks1, ks2)
	}

	// Fields that change the executed run must split the key: the seed,
	// and — because observation switches the counts engine to tick mode —
	// the observation interval.
	for name, mut := range map[string]JobSpec{
		"seed":            {Protocol: "two-choices", Counts: []int64{600, 400}, Seed: 2},
		"observeInterval": {Protocol: "two-choices", Counts: []int64{600, 400}, ObserveInterval: 5},
		"model":           {Protocol: "two-choices", Counts: []int64{600, 400}, Model: "poisson"},
		"counts":          {Protocol: "two-choices", Counts: []int64{601, 399}},
		"trials":          {Protocol: "two-choices", Counts: []int64{600, 400}, Trials: 4},
	} {
		k, err := mut.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k1 {
			t.Errorf("changing %s did not change the key", name)
		}
	}

	if !strings.HasPrefix(k1, "sha256:") {
		t.Errorf("key %q lacks the sha256: prefix", k1)
	}
}

// TestNormalizeRejects: the service-level constraints the library cannot
// see.
func TestNormalizeRejects(t *testing.T) {
	cases := map[string]JobSpec{
		"unknown model":           {Protocol: "voter", Counts: []int64{2, 1}, Model: "warp"},
		"heap-poisson model":      {Protocol: "voter", Counts: []int64{2, 1}, Model: "heap-poisson"},
		"unknown engine":          {Protocol: "voter", Counts: []int64{2, 1}, Engine: "quantum"},
		"negative trials":         {Protocol: "voter", Counts: []int64{2, 1}, Trials: -1},
		"streaming multi-trial":   {Protocol: "voter", Counts: []int64{2, 1}, Trials: 3, ObserveInterval: 5},
		"disconnect no streaming": {Protocol: "voter", Counts: []int64{2, 1}, CancelOnDisconnect: true},
		"negative interval":       {Protocol: "voter", Counts: []int64{2, 1}, ObserveInterval: -2},
		"inline leap budget":      {Protocol: "voter", Counts: []int64{2, 1}, Engine: "leap:0.05"},
	}
	for name, sp := range cases {
		if _, err := sp.normalize(); err == nil {
			t.Errorf("%s: normalize accepted %+v", name, sp)
		}
	}
}

// TestCompileUsesLibraryValidation: compile must surface Job.Validate
// rejections (here: an option the selected engine ignores) as errors before
// anything is queued.
func TestCompileUsesLibraryValidation(t *testing.T) {
	sp := JobSpec{
		Protocol:      "two-choices",
		Counts:        []int64{600, 400},
		Engine:        "occupancy",
		ResponseDelay: 1, // per-node extension: the counts engine rejects it
	}
	if _, _, err := sp.compile(nil); err == nil {
		t.Fatal("compile accepted a per-node option on the occupancy engine")
	}

	if _, _, err := (JobSpec{Protocol: "no-such", Counts: []int64{2, 1}}).compile(nil); err == nil {
		t.Fatal("compile accepted an unknown protocol")
	}

	// A negative rate reaches the library's range checks rather than
	// switching the extension off.
	for _, sp := range []JobSpec{
		{Protocol: "two-choices", Counts: []int64{600, 400}, Engine: "per-node", ResponseDelay: -1},
		{Protocol: "two-choices", Counts: []int64{600, 400}, Engine: "per-node", Churn: -0.1},
	} {
		if _, _, err := sp.compile(nil); err == nil {
			t.Fatalf("compile accepted %+v", sp)
		}
	}

	// And the happy path compiles.
	norm, job, err := (JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}}).compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if job.N() != 1000 || norm.Trials != 1 || norm.Seed != 1 {
		t.Fatalf("normalized spec %+v, job n=%d", norm, job.N())
	}
}

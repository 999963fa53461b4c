package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestAdversarySpecNormalization: inactive adversary spellings collapse
// onto the clean cache key; active ones canonicalize aliases and inline
// lags without losing information.
func TestAdversarySpecNormalization(t *testing.T) {
	base := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}}
	kClean, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Zero-budget and "none" spellings are bit-identical runs: one key.
	for name, sp := range map[string]JobSpec{
		"zero budget":    {Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "corrupt"},
		"none":           {Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "none"},
		"budgetless lag": {Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "late:2"},
	} {
		k, err := sp.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k != kClean {
			t.Errorf("%s: inactive adversary split the cache key", name)
		}
	}

	// Aliases and inline lags canonicalize onto the same active key.
	k1, err := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "liar", Budget: 8}.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "byzantine", Budget: 8}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("alias spelling split the cache key")
	}
	if k1 == kClean {
		t.Error("active adversary shares the clean run's cache key")
	}
	k3, err := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "late:2", Budget: 8}.Key()
	if err != nil {
		t.Fatal(err)
	}
	k4, err := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "late", AdversaryLag: 2, Budget: 8}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k3 != k4 {
		t.Error("inline-lag spelling split the cache key")
	}
	k5, err := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "late", AdversaryLag: 3, Budget: 8}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k5 == k3 {
		t.Error("different lags share a cache key")
	}
}

func TestAdversarySpecRejects(t *testing.T) {
	for name, sp := range map[string]JobSpec{
		"unknown adversary":     {Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "bogus", Budget: 8},
		"budget without name":   {Protocol: "two-choices", Counts: []int64{600, 400}, Budget: 8},
		"negative budget":       {Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "corrupt", Budget: -1},
		"double lag":            {Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "late:2", AdversaryLag: 3, Budget: 8},
		"lag on lag-free":       {Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "corrupt", AdversaryLag: 2, Budget: 8},
		"late without lag":      {Protocol: "two-choices", Counts: []int64{600, 400}, Adversary: "late", Budget: 8},
		"byzantine on core":     {Protocol: "core", Counts: []int64{600, 400}, Adversary: "byzantine", Budget: 8},
		"adversary on leap":     {Protocol: "two-choices", Counts: []int64{600, 400}, Engine: "leap", Adversary: "corrupt", Budget: 8},
		"per-node on occupancy": {Protocol: "two-choices", Counts: []int64{600, 400}, Engine: "occupancy", Adversary: "delay-set", Budget: 8},
	} {
		if _, _, err := sp.compile(nil); err == nil {
			t.Errorf("%s: compile accepted the spec", name)
		}
	}
	// An inactive adversary normalizes away before planning, so the daemon
	// runs it on any engine, leap included, as the clean run it is.
	inert := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}, Engine: "leap", Adversary: "corrupt"}
	if _, _, err := inert.compile(nil); err != nil {
		t.Errorf("zero-budget adversary on leap rejected: %v", err)
	}
	// The supported pairs still compile.
	ok := JobSpec{Protocol: "two-choices", Counts: []int64{600, 400}, Model: "poisson", Adversary: "corruption", Budget: 8}
	if _, _, err := ok.compile(nil); err != nil {
		t.Errorf("corrupt two-choices rejected: %v", err)
	}
}

// FuzzJobSpecKey fuzzes the canonicalizer: for any JSON body the daemon
// would accept, normalization must be idempotent (canonicalize ∘ parse of
// the normalized form is a fixed point), the cache key must be stable
// across re-normalization, and two specs with distinct normalized forms
// must not collide on one key (SHA-256 over the canonical JSON — a
// collision here means normalization lost a run-relevant field).
func FuzzJobSpecKey(f *testing.F) {
	f.Add(`{"protocol":"two-choices","counts":[600,400]}`)
	f.Add(`{"protocol":"two-choices","counts":[600,400],"adversary":"liar","budget":8}`)
	f.Add(`{"protocol":"core","counts":[600,400],"adversary":"corrupt","budget":0,"model":"poisson"}`)
	f.Add(`{"protocol":"voter","counts":[1,2,3],"adversary":"late:2","budget":4,"engine":"per-node"}`)
	f.Add(`{"protocol":"3-majority","counts":[9,3],"adversary":"delay-set","budget":1,"seed":7,"trials":3}`)
	f.Add(`{"protocol":"usd","counts":[5,5],"observeInterval":2,"churn":0.001}`)
	f.Fuzz(func(t *testing.T, body string) {
		var sp JobSpec
		if err := json.Unmarshal([]byte(body), &sp); err != nil {
			t.Skip()
		}
		norm, err := sp.normalize()
		if err != nil {
			// Invalid specs must fail Key the same way, never panic.
			if _, kerr := sp.Key(); kerr == nil {
				t.Fatalf("normalize rejected (%v) but Key succeeded", err)
			}
			return
		}
		// Idempotence: normalizing the normalized form is a fixed point.
		again, err := norm.normalize()
		if err != nil {
			t.Fatalf("re-normalize failed: %v", err)
		}
		b1, _ := json.Marshal(norm)
		b2, _ := json.Marshal(again)
		if string(b1) != string(b2) {
			t.Fatalf("normalize is not idempotent:\n  once:  %s\n  twice: %s", b1, b2)
		}
		// Key stability: the raw and normalized spellings share one key.
		k1, err := sp.Key()
		if err != nil {
			t.Fatalf("Key on accepted spec: %v", err)
		}
		k2, err := norm.Key()
		if err != nil {
			t.Fatalf("Key on normalized spec: %v", err)
		}
		if k1 != k2 {
			t.Fatalf("normalization changed the key: %s vs %s", k1, k2)
		}
		if !strings.HasPrefix(k1, "sha256:") || len(k1) != len("sha256:")+64 {
			t.Fatalf("malformed key %q", k1)
		}
		// No collisions: a spec differing in a run-relevant field (here the
		// seed, always present after normalization) must split the key.
		bumped := norm
		bumped.Seed++
		k3, err := bumped.Key()
		if err == nil && k3 == k1 {
			t.Fatalf("seed bump did not split the key %s", k1)
		}
	})
}

package sched

import (
	"math"
	"testing"

	"plurality/internal/rng"
)

func TestExpLatencyMean(t *testing.T) {
	r := rng.New(1)
	m := ExpLatency{Mean: 2.5}
	const draws = 200_000
	var sum float64
	for i := 0; i < draws; i++ {
		d := m.SampleLatency(r, 0, 1)
		if d < 0 {
			t.Fatalf("negative latency %v", d)
		}
		sum += d
	}
	got := sum / draws
	// Standard error is Mean/sqrt(draws) ≈ 0.006; 5σ gate.
	if math.Abs(got-2.5) > 0.03 {
		t.Fatalf("empirical mean %v, want ≈ 2.5", got)
	}
}

func TestUniformLatencyRangeAndMean(t *testing.T) {
	r := rng.New(2)
	m := UniformLatency{Min: 1, Max: 3}
	const draws = 200_000
	var sum float64
	for i := 0; i < draws; i++ {
		d := m.SampleLatency(r, 0, 1)
		if d < 1 || d >= 3 {
			t.Fatalf("latency %v outside [1, 3)", d)
		}
		sum += d
	}
	if got := sum / draws; math.Abs(got-2) > 0.01 {
		t.Fatalf("empirical mean %v, want ≈ 2", got)
	}
}

// negLatency violates the LatencyModel contract on purpose.
type negLatency struct{}

func (negLatency) SampleLatency(*rng.RNG, int, int) float64 { return -3 }

// TestMaxLatencyClampsNegative: contract-violating negative draws must
// count as 0 so they can never shorten other blocking.
func TestMaxLatencyClampsNegative(t *testing.T) {
	if got := MaxLatency(negLatency{}, rng.New(1), 0, 1, 2); got != 0 {
		t.Fatalf("MaxLatency of negative draws = %v, want 0", got)
	}
}

// MaxLatency must distribute like the max of two independent draws: for
// Exp(1) latencies, E[max] = 1 + 1/2 = 1.5.
func TestMaxLatencyDistribution(t *testing.T) {
	r := rng.New(3)
	m := ExpLatency{Mean: 1}
	const draws = 200_000
	var sum float64
	for i := 0; i < draws; i++ {
		sum += MaxLatency(m, r, 0, 1, 2)
	}
	if got := sum / draws; math.Abs(got-1.5) > 0.02 {
		t.Fatalf("E[max of two Exp(1)] = %v, want ≈ 1.5", got)
	}
}

// TestCheckLatency: the parameter ranges the library and the run spec
// grammar accept, and a model of another type passing unchecked.
func TestCheckLatency(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		m  LatencyModel
		ok bool
	}{
		{nil, true},
		{negLatency{}, true},
		{ExpLatency{Mean: 0.2}, true},
		{ExpLatency{Mean: 0}, false},
		{ExpLatency{Mean: -1}, false},
		{ExpLatency{Mean: nan}, false},
		{ExpLatency{Mean: inf}, false},
		{UniformLatency{Min: 0, Max: 0.3}, true},
		{UniformLatency{Min: 2, Max: 1}, false},
		{UniformLatency{Min: 1, Max: 1}, false},
		{UniformLatency{Min: -1, Max: 1}, false},
		{UniformLatency{Min: nan, Max: 1}, false},
		{UniformLatency{Min: 0, Max: inf}, false},
	} {
		if err := CheckLatency(tc.m); (err == nil) != tc.ok {
			t.Errorf("CheckLatency(%#v) = %v, want ok = %v", tc.m, err, tc.ok)
		}
	}
}

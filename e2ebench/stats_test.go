package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
		{10, 1.4}, {90, 4.6}, {99, 4.96},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of no samples should be NaN")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
}

func TestBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := beyond(xs, 99); got != 10 {
		t.Errorf("beyond p99 of 1000 samples = %d, want 10", got)
	}
	if got := beyond(xs, 90); got != 100 {
		t.Errorf("beyond p90 of 1000 samples = %d, want 100", got)
	}
}

func TestLateness(t *testing.T) {
	base := time.Unix(1000, 0)
	due := []time.Time{base, base.Add(10 * time.Millisecond), base.Add(20 * time.Millisecond)}
	sent := []time.Time{
		base.Add(-time.Microsecond),                           // early clock read: clamped to 0
		base.Add(10*time.Millisecond + 1500*time.Microsecond), // 1.5 ms late
		base.Add(20 * time.Millisecond),                       // on time
	}
	got := lateness(due, sent)
	want := []float64{0, 1.5, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("lateness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	a := poissonArrivals(20000, 400, rand.New(rand.NewSource(7)).ExpFloat64)
	b := poissonArrivals(20000, 400, rand.New(rand.NewSource(7)).ExpFloat64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different arrivals at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	// 20000 arrivals at 400/s span about 50 s.
	if span := a[len(a)-1].Seconds(); span < 48 || span > 52 {
		t.Errorf("20000 arrivals at 400/s span %.1fs, want ≈50s", span)
	}
}

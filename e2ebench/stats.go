package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive") and NumPy's default. xs need not
// be sorted and is not modified. An empty slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// beyond counts the samples strictly above the p-th percentile: the number
// of observations a tail figure rests on.
func beyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lateness is how far behind its schedule an open-loop generator sent each
// request: sent minus due, clamped at zero (a send is never early, but a
// clock read can land a hair before the deadline it slept to).
func lateness(due, sent []time.Time) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if d := sent[i].Sub(due[i]); d > 0 {
			out[i] = ms(d)
		}
	}
	return out
}

// poissonArrivals returns n arrival offsets of a Poisson process at rate
// per second: exponential gaps drawn from next, which returns Exp(1)
// variates (rand.Rand.ExpFloat64).
func poissonArrivals(n int, rate float64, next func() float64) []time.Duration {
	out := make([]time.Duration, n)
	var at float64
	for i := range out {
		at += next() / rate
		out[i] = time.Duration(at * float64(time.Second))
	}
	return out
}

package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // 10 beyond p99
		{999, 95, true},  // 9.99 beyond p99: too few
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{39, 50, true},
		{20, 50, true},
		{19, 50, false}, // not even the median has ten beyond
		{0, 50, false},
	} {
		_, p, ok := tail(seq(c.n))
		if p != c.want || ok != c.ok {
			t.Errorf("n=%d: tail picked p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample should be NaN")
	}
	v, _, _ := tail(seq(200)) // 1..200: p95 at rank 0.95*199
	if want := 1 + 0.95*199; math.Abs(v-want) > 1e-9 {
		t.Errorf("p95 of 1..200 = %v, want %v", v, want)
	}
}

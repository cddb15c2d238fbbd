package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean; NaN for an empty sample.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentiles are the candidates of the tail rule, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail applies the reporting rule for a latency tail: the highest
// percentile with at least minBeyond samples beyond it. When the sample
// is too small for even the median to qualify, it falls back to the
// median and says so through ok.
func tail(xs []float64) (value, p float64, ok bool) {
	n := float64(len(xs))
	for _, p := range tailPercentiles {
		if math.Floor(n*(1-p/100)+1e-9) >= minBeyond {
			return percentile(xs, p), p, true
		}
	}
	return median(xs), 50, false
}

// tailLabel names the percentile tail picked, for logs: "p95 (n=212)".
func tailLabel(xs []float64) string {
	_, p, ok := tail(xs)
	if !ok {
		return fmt.Sprintf("p%.0f (n=%d, too few for the rule)", p, len(xs))
	}
	return fmt.Sprintf("p%.0f (n=%d)", p, len(xs))
}

// ratio returns num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

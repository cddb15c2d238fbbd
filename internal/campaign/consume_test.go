package campaign

import (
	"math"
	"testing"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// sdcOutcome builds an SDC outcome of n mismatches on a 64x64 output:
// a block whose relative errors straddle the default threshold, with
// NaN and infinite errors mixed in.
func sdcOutcome(rng *xrand.RNG, n int) injector.Outcome {
	errs := []float64{0.5, 1.9, 2, 3, 80, metrics.InfiniteRelErr, math.NaN()}
	rep := &metrics.Report{Dims: grid.Dims{X: 64, Y: 64, Z: 1}, TotalElements: 64 * 64}
	for i := 0; i < n; i++ {
		rep.Mismatches = append(rep.Mismatches, metrics.Mismatch{
			Coord:     grid.Coord{X: rng.Intn(64), Y: rng.Intn(64)},
			RelErrPct: errs[rng.Intn(len(errs))],
		})
	}
	return injector.Outcome{Class: fault.SDC, Resource: fault.RegisterFile, Report: rep}
}

// TestReducersMatchFilter pins the copy-free threshold reducers to the
// Filter-based definitions they replace, on thresholds that include zero
// and negative values (where NaN relative errors separate "no filter"
// from "filter at t").
func TestReducersMatchFilter(t *testing.T) {
	ts := []float64{-1, 0, 1, metrics.DefaultThresholdPct, 50, math.Inf(1)}
	rng := xrand.New(7)
	outs := make([]injector.Outcome, 300)
	for i := range outs {
		outs[i] = sdcOutcome(rng, 1+rng.Intn(6))
	}
	counts := NewSDCCountReducer(ts...)
	for i, out := range outs {
		counts.Consume(i, out)
	}
	for k, th := range ts {
		loc, frac := NewLocalityReducer(th), NewFilteredFractionReducer(th)
		wantCount, wantCleared := 0, 0
		wantLoc := map[metrics.Pattern]int{}
		for i, out := range outs {
			loc.Consume(i, out)
			frac.Consume(i, out)
			if th <= 0 || out.Report.Filter(th).IsSDC() {
				wantCount++
			}
			if !out.Report.Filter(th).IsSDC() {
				wantCleared++
			}
			eff := out.Report
			if th > 0 {
				eff = eff.Filter(th)
			}
			if eff.IsSDC() {
				wantLoc[eff.Locality()]++
			}
		}
		if counts.Counts[k] != wantCount {
			t.Errorf("threshold %v: SDC count %d, Filter-based %d", th, counts.Counts[k], wantCount)
		}
		if frac.Cleared != wantCleared || frac.SDCs != len(outs) {
			t.Errorf("threshold %v: cleared %d of %d, Filter-based %d of %d", th, frac.Cleared, frac.SDCs, wantCleared, len(outs))
		}
		for _, p := range metrics.Patterns {
			if loc.Counts[p] != wantLoc[p] {
				t.Errorf("threshold %v: locality %v count %d, Filter-based %d", th, p, loc.Counts[p], wantLoc[p])
			}
		}
	}
}

// TestSummaryAccumulatorConsumeAllocs gates the serial consume loop's
// reducer stack: once warmed, folding an SDC outcome under the paper's
// threshold pair allocates nothing.
func TestSummaryAccumulatorConsumeAllocs(t *testing.T) {
	acc := NewSummaryAccumulator([]float64{0, metrics.DefaultThresholdPct})
	out := sdcOutcome(xrand.New(1), 1000)
	acc.Consume(0, out)
	if n := testing.AllocsPerRun(20, func() { acc.Consume(1, out) }); n != 0 {
		t.Fatalf("SummaryAccumulator.Consume of a %d-mismatch SDC allocated %v times per call, want 0",
			out.Report.Count(), n)
	}
}

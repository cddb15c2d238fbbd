package campaign

import (
	"reflect"
	"testing"

	"radcrit/internal/abft"
	"radcrit/internal/k40"
	"radcrit/internal/kernels/dgemm"
)

// TestFigurePassMatchesRetainedResults pins the single figure path
// against the retained-report definitions: every assembler of one pass
// over a shared matrix equals the same statistic computed from Run's
// Result, and a cell registered by several artifacts — or through a
// second kernel instance naming the same input — is evaluated once.
func TestFigurePassMatchesRetainedResults(t *testing.T) {
	cfg := DefaultConfig(301, 120)
	cells := DGEMMCells(k40.New(), TestScale)
	pass := NewFigurePass(cfg, 0)
	scatter := pass.Scatter("DGEMM", 100, cells)
	locality := pass.Locality("DGEMM", cells)
	ratios := pass.Ratios(cells)
	scaling := pass.Scaling(cells)
	coverage := pass.ABFT(cells)
	byResource := pass.ResourceTally(Cell{Dev: k40.New(), Kern: dgemm.New(128)})
	if got := len(pass.Cells()); got != len(cells) {
		t.Fatalf("pass holds %d cells for %d distinct ones", got, len(cells))
	}
	if err := pass.Run(); err != nil {
		t.Fatal(err)
	}

	sc, loc, rows, growth, cov := scatter(), locality(), ratios(), scaling(), coverage()
	if sc.Device != "K40" || loc.Device != "K40" || loc.ThresholdPct != 2 {
		t.Fatalf("figure identity: scatter %q, locality %q at %v%%", sc.Device, loc.Device, loc.ThresholdPct)
	}
	var sdcs int
	for i, c := range cells {
		res := Run(c.Dev, c.Kern, cfg)
		label := res.Device + "/" + res.Input
		sdcs += res.Tally.SDC
		if sc.Series[i].Label != res.Input || !reflect.DeepEqual(sc.Series[i].Points, res.Scatter(100)) {
			t.Errorf("%s: scatter differs from Result.Scatter", label)
		}
		bar := loc.Bars[i]
		if !reflect.DeepEqual(bar.All, res.LocalityBreakdown(0)) ||
			!reflect.DeepEqual(bar.Filtered, res.LocalityBreakdown(2)) ||
			bar.FilterMeaningful != (res.FilteredFraction(2) > 0) {
			t.Errorf("%s: locality bar differs from Result.LocalityBreakdown", label)
		}
		want := RatioRow{Device: res.Device, Kernel: res.Kernel, Input: res.Input,
			SDC: res.Tally.SDC, DUE: res.Tally.Crash + res.Tally.Hang, Ratio: res.Tally.SDCToDUERatio()}
		if rows[i] != want {
			t.Errorf("%s: ratio row %+v, want %+v", label, rows[i], want)
		}
		if growth[i].FITAll != res.SDCFIT(0) || growth[i].FITFiltered != res.SDCFIT(2) {
			t.Errorf("%s: scaling row differs from Result.SDCFIT", label)
		}
		if got, want := cov[i].CorrectableFraction, abft.EvaluateCoverage(res.Reports).CorrectableFraction(); got != want {
			t.Errorf("%s: ABFT coverage %v, want %v", label, got, want)
		}
		if i == 0 && !reflect.DeepEqual(byResource(), res.ResourceTally) {
			t.Errorf("%s: resource tally differs from Result.ResourceTally", label)
		}
	}
	if sdcs == 0 {
		t.Fatal("matrix produced no SDCs: the comparison is vacuous")
	}
	if growth[0].GrowthAll != 1 {
		t.Errorf("scaling growth is not relative to the first cell: %v", growth[0].GrowthAll)
	}
}

package campaign

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
)

// sameBits compares floats by bit pattern: corrupted reads can legally be
// NaN (exponent-field flips), and NaN != NaN under both == and DeepEqual
// even though the two runs produced the identical bit pattern.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameReport(a, b *metrics.Report) bool {
	if a.Dims != b.Dims || a.TotalElements != b.TotalElements ||
		!sameBits(a.ThresholdPct, b.ThresholdPct) || len(a.Mismatches) != len(b.Mismatches) {
		return false
	}
	for i := range a.Mismatches {
		ma, mb := a.Mismatches[i], b.Mismatches[i]
		if ma.Coord != mb.Coord || !sameBits(ma.Read, mb.Read) ||
			!sameBits(ma.Expected, mb.Expected) || !sameBits(ma.RelErrPct, mb.RelErrPct) {
			return false
		}
	}
	return true
}

// requireIdentical asserts two engine results are bit-identical, field by
// field for actionable failures.
func requireIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Tally != b.Tally {
		t.Fatalf("%s: tallies differ: %+v vs %+v", label, a.Tally, b.Tally)
	}
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("%s: report counts differ: %d vs %d", label, len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		if !sameReport(a.Reports[i], b.Reports[i]) {
			t.Fatalf("%s: report %d differs", label, i)
		}
	}
	if !reflect.DeepEqual(a.ReportResource, b.ReportResource) {
		t.Fatalf("%s: report resources differ", label)
	}
	if !reflect.DeepEqual(a.ResourceTally, b.ResourceTally) {
		t.Fatalf("%s: resource tallies differ", label)
	}
	if a.Exposure != b.Exposure {
		t.Fatalf("%s: exposures differ: %+v vs %+v", label, a.Exposure, b.Exposure)
	}
	if a.Device != b.Device || a.Kernel != b.Kernel || a.Input != b.Input ||
		a.Strikes != b.Strikes || a.Profile != b.Profile {
		t.Fatalf("%s: cell identity fields differ", label)
	}
}

// determinismCells covers all four kernels on both devices' architectures:
// the stateless delta-propagated kernels (DGEMM, LavaMD) and the stateful
// snapshot-timeline kernels (HotSpot, CLAMR) exercise every golden-state
// handle implementation.
func determinismCells() []Cell {
	return []Cell{
		{Dev: k40.New(), Kern: dgemm.New(128)},
		{Dev: phi.New(), Kern: lavamd.New(4)},
		{Dev: k40.New(), Kern: HotSpotKernel(TestScale)},
		{Dev: phi.New(), Kern: CLAMRKernel(TestScale)},
	}
}

// TestParallelEngineBitIdentical is the engine's determinism contract:
// one worker and many workers must produce bit-identical Results for the
// same seed, for every kernel family.
func TestParallelEngineBitIdentical(t *testing.T) {
	for _, cell := range determinismCells() {
		serial := DefaultConfig(11, 160)
		serial.Workers = 1
		parallel := serial
		parallel.Workers = 8
		a := Run(cell.Dev, cell.Kern, serial)
		b := Run(cell.Dev, cell.Kern, parallel)
		requireIdentical(t, cell.Kern.Name(), a, b)
	}
}

// TestParallelEngineGOMAXPROCSInvariant pins the acceptance criterion
// directly: GOMAXPROCS=1 vs GOMAXPROCS=8 with the default worker count.
func TestParallelEngineGOMAXPROCSInvariant(t *testing.T) {
	dev := k40.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(23, 160) // Workers = 0: sized by GOMAXPROCS

	prev := runtime.GOMAXPROCS(1)
	a := Run(dev, kern, cfg)
	runtime.GOMAXPROCS(8)
	b := Run(dev, kern, cfg)
	runtime.GOMAXPROCS(prev)

	requireIdentical(t, "GOMAXPROCS 1 vs 8", a, b)
}

// TestParallelEngineRepeatedRunsIdentical guards against order-dependent
// state leaking through the shared golden handles: a second parallel run
// over warm caches must reproduce the first bit for bit.
func TestParallelEngineRepeatedRunsIdentical(t *testing.T) {
	dev := phi.New()
	kern := dgemm.New(128)
	cfg := DefaultConfig(31, 160)
	cfg.Workers = 8
	a := Run(dev, kern, cfg)
	b := Run(dev, kern, cfg)
	requireIdentical(t, "repeated parallel runs", a, b)
}

// TestRunSingleFlight verifies that concurrent Run calls on one cell are
// safe and agree: Run keeps no shared state between calls, so every
// caller computes the cell itself and all of them get bit-identical
// results.
func TestRunSingleFlight(t *testing.T) {
	dev := k40.New()
	kern := dgemm.New(192)
	cfg := DefaultConfig(47, 60)
	const callers = 8
	results := make([]*Result, callers)
	done := make(chan int)
	for c := 0; c < callers; c++ {
		go func(c int) {
			results[c] = Run(dev, kern, cfg)
			done <- c
		}(c)
	}
	for i := 0; i < callers; i++ {
		<-done
	}
	for c := 1; c < callers; c++ {
		requireIdentical(t, "concurrent caller", results[0], results[c])
	}
}

// TestRunMatrixOrderAndDedup checks that a FigurePass keeps its cells in
// first-seen order, that a duplicate cell (even a distinct kernel
// instance) is evaluated once, and that every registration of it reads
// the shared reducer state.
func TestRunMatrixOrderAndDedup(t *testing.T) {
	cells := []Cell{
		{Dev: k40.New(), Kern: dgemm.New(128)},
		{Dev: phi.New(), Kern: dgemm.New(128)},
		{Dev: k40.New(), Kern: dgemm.New(128)}, // duplicate of cell 0
	}
	p := NewFigurePass(DefaultConfig(53, 60), 0)
	ratios := p.Ratios(cells)
	distinct := p.Cells()
	if len(distinct) != 2 {
		t.Fatalf("pass holds %d cells, want 2 distinct", len(distinct))
	}
	for i, c := range distinct {
		if c.Dev.ShortName() != cells[i].Dev.ShortName() || c.Kern.InputLabel() != cells[i].Kern.InputLabel() {
			t.Fatalf("distinct cell %d out of order: %s/%s", i, c.Dev.ShortName(), c.Kern.InputLabel())
		}
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	rows := ratios()
	if len(rows) != len(cells) {
		t.Fatalf("got %d rows for %d cells", len(rows), len(cells))
	}
	for i, row := range rows {
		if row.Device != cells[i].Dev.ShortName() || row.Input != cells[i].Kern.InputLabel() {
			t.Fatalf("row %d out of order: %s/%s", i, row.Device, row.Input)
		}
	}
	if rows[0] != rows[2] {
		t.Fatalf("duplicate cells disagree: %+v vs %+v", rows[0], rows[2])
	}
	if rows[0].Device == rows[1].Device {
		t.Fatal("distinct devices must not share a row")
	}
}

// TestWorkersExcludedFromMemoKey pins the Config.Workers contract: the
// worker count cannot change results, so it is left out of the cell's
// content address (CellKey) and Run gives identical results under any
// worker count.
func TestWorkersExcludedFromMemoKey(t *testing.T) {
	dev := phi.New()
	kern := dgemm.New(192)
	a := DefaultConfig(59, 60)
	a.Workers = 1
	b := DefaultConfig(59, 60)
	b.Workers = 8
	spec := CellSpec{Device: "phi", Kernel: "dgemm:192"}
	if CellKey(spec, a, nil) != CellKey(spec, b, nil) {
		t.Fatal("Workers changed the cell key")
	}
	requireIdentical(t, "workers 1 vs 8", Run(dev, kern, a), Run(dev, kern, b))
}

// invalidKernel wraps a real kernel with a degenerate profile, to drive
// the engine's failure path.
type invalidKernel struct{ kernels.Kernel }

func (invalidKernel) Profile(dev arch.Device) arch.Profile { return arch.Profile{} }

// TestRunPoisonedEntryPanicsAgain pins Run's failure semantics: a cell
// whose computation fails (invalid profile) must fail loudly on every
// call, never return a nil *Result on a retry.
func TestRunPoisonedEntryPanicsAgain(t *testing.T) {
	dev := k40.New()
	kern := invalidKernel{dgemm.New(128)}
	cfg := DefaultConfig(83, 10)
	mustPanic := func(label string) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", label)
			}
		}()
		Run(dev, kern, cfg)
	}
	mustPanic("first run (invalid profile)")
	mustPanic("retry of the failed cell")
}

// TestRunFreshWorkerInvariant cross-checks Run (the uncached engine entry
// the benchmarks use) across worker counts for every kernel family.
func TestRunFreshWorkerInvariant(t *testing.T) {
	for _, cell := range determinismCells() {
		cfgA := DefaultConfig(71, 80)
		cfgA.Workers = 1
		cfgB := cfgA
		cfgB.Workers = 4
		a := Run(cell.Dev, cell.Kern, cfgA)
		b := Run(cell.Dev, cell.Kern, cfgB)
		requireIdentical(t, cell.Kern.Name()+" fresh", a, b)
	}
}

// TestSessionlessBuildersDeterministicUnderWorkers checks the ported
// strike-loop builders (mass check, Fig. 9 map) produce identical outputs
// for any worker count.
func TestSessionlessBuildersDeterministicUnderWorkers(t *testing.T) {
	dev := phi.New()
	serial := DefaultConfig(67, 120)
	serial.Workers = 1
	parallel := serial
	parallel.Workers = 8

	mcA := BuildMassCheckCoverage(dev, TestScale, serial, 2)
	mcB := BuildMassCheckCoverage(dev, TestScale, parallel, 2)
	if mcA != mcB {
		t.Fatalf("mass-check coverage depends on workers: %+v vs %+v", mcA, mcB)
	}

	mapA := BuildCLAMRLocalityMap(dev, TestScale, serial)
	mapB := BuildCLAMRLocalityMap(dev, TestScale, parallel)
	if !reflect.DeepEqual(mapA, mapB) {
		t.Fatal("locality map depends on workers")
	}
}

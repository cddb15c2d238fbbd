package campaign

import (
	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/detect"
	"radcrit/internal/fault"
	"radcrit/internal/fit"
	"radcrit/internal/injector"
	"radcrit/internal/metrics"
	"radcrit/internal/par"
	"radcrit/internal/xrand"
)

// ScatterSeries is the data behind one subfigure of Figures 2, 4, 6, 8:
// one (incorrect elements, mean relative error) point per SDC, grouped by
// input size.
type ScatterSeries struct {
	Device string
	Kernel string
	// CapPct is the relative-error display cap applied (100% for DGEMM,
	// 20,000% for LavaMD, per the paper's figure notes).
	CapPct float64
	Series []LabeledPoints
}

// LabeledPoints is one input size's point cloud.
type LabeledPoints struct {
	Label  string
	Points []ScatterPoint
}

// LocalityBar is one input size's FIT breakdown pair in Figures 3, 5, 7.
type LocalityBar struct {
	Input string
	// All is the unfiltered breakdown, Filtered the >threshold one.
	All      fit.Breakdown
	Filtered fit.Breakdown
	// FilterMeaningful is false when no mismatch fell below the filter
	// (the paper then shows only the All bar, e.g. DGEMM on the Phi).
	FilterMeaningful bool
}

// LocalityFigure is one subfigure of Figures 3, 5, 7.
type LocalityFigure struct {
	Device       string
	Kernel       string
	ThresholdPct float64
	Bars         []LocalityBar
}

// RatioRow is one (device, kernel, input) SDC:DUE ratio (§V preamble).
type RatioRow struct {
	Device string
	Kernel string
	Input  string
	SDC    int
	DUE    int
	Ratio  float64
}

// ScalingRow captures FIT growth with input size (§V-A: K40 DGEMM FIT
// grows ~7x (All) / ~5x (>2%) across the sweep; Phi only ~1.8x).
type ScalingRow struct {
	Device       string
	Input        string
	FITAll       float64
	FITFiltered  float64
	GrowthAll    float64 // relative to the smallest input
	GrowthFilter float64
}

// ABFTRow is one device's ABFT-correctable share of DGEMM errors (§V-A).
type ABFTRow struct {
	Device string
	Input  string
	// CorrectableFraction is the share of SDCs with single/line locality.
	CorrectableFraction float64
	// ResidualFraction is the square+random share ABFT cannot repair.
	ResidualFraction float64
}

// FigurePass builds the paper's aggregate artifacts — the scatter
// figures, the locality figures, the SDC:DUE ratios, the DGEMM scaling
// series, the ABFT coverage and the per-resource tallies — from one
// streaming pass. Each artifact registers its cells with the reducers it
// reads and gets back an assembler; Run then executes every distinct
// (device, kernel, input) cell exactly once, in a single StreamMatrix
// call carrying the union of the reducers its artifacts asked for, and
// the assemblers fold that reducer state. Cells shared by several
// artifacts (the DGEMM sweep feeds Figs. 2 and 3 and three §V
// statistics) cost one strike loop, and no report outlives its strike.
//
// Assemblers must only be called after Run has returned.
type FigurePass struct {
	cfg       Config
	maxPoints int
	index     map[cellID]int
	cells     []Cell
	stats     []*cellStats
}

// figureThresholdPct is the relative-error filter of the locality
// figures and the scaling series: the paper's conservative 2%.
const figureThresholdPct = metrics.DefaultThresholdPct

// cellID is a cell's identity: two Cells naming the same device, kernel
// and input are one experiment, whatever kernel instance they hold.
type cellID struct{ device, kernel, input string }

// cellStats is one cell's reducer stack; a nil reducer was not asked for
// by any registered artifact.
type cellStats struct {
	info          StreamInfo
	tally         *TallyReducer
	counts        *SDCCountReducer // thresholds {0, figureThresholdPct}
	all, filtered *LocalityReducer
	fraction      *FilteredFractionReducer
	scatter       *ScatterReducer
	abft          *ABFTReducer
}

func (s *cellStats) sinks() []Sink {
	var sinks []Sink
	if s.tally != nil {
		sinks = append(sinks, s.tally)
	}
	if s.counts != nil {
		sinks = append(sinks, s.counts)
	}
	if s.all != nil {
		sinks = append(sinks, s.all, s.filtered, s.fraction)
	}
	if s.scatter != nil {
		sinks = append(sinks, s.scatter)
	}
	if s.abft != nil {
		sinks = append(sinks, s.abft)
	}
	return sinks
}

// NewFigurePass starts an empty pass under cfg. maxPoints bounds each
// scatter cell's reservoir (<= 0 keeps every point).
func NewFigurePass(cfg Config, maxPoints int) *FigurePass {
	return &FigurePass{cfg: cfg, maxPoints: maxPoints, index: map[cellID]int{}}
}

// add registers cells, letting need attach reducers to each cell's stack,
// and returns the stacks in cell order.
func (p *FigurePass) add(cells []Cell, need func(s *cellStats, c Cell)) []*cellStats {
	out := make([]*cellStats, len(cells))
	for i, c := range cells {
		id := cellID{c.Dev.ShortName(), c.Kern.Name(), c.Kern.InputLabel()}
		k, ok := p.index[id]
		if !ok {
			k = len(p.cells)
			p.index[id] = k
			p.cells = append(p.cells, c)
			p.stats = append(p.stats, &cellStats{})
		}
		need(p.stats[k], p.cells[k])
		out[i] = p.stats[k]
	}
	return out
}

// Cells returns the distinct cells registered so far, in first-seen
// order: exactly the cells Run evaluates.
func (p *FigurePass) Cells() []Cell { return p.cells }

// Run evaluates every registered cell once, concurrently, through the
// streaming engine.
func (p *FigurePass) Run() error {
	infos, err := StreamMatrix(p.cells, p.cfg, func(i int, _ Cell) []Sink { return p.stats[i].sinks() })
	for i, info := range infos {
		p.stats[i].info = info
	}
	return err
}

// scatterRNG derives the deterministic reservoir-eviction stream of one
// cell: a pure function of (seed, cell), independent of Workers, chunking
// and sibling cells.
func scatterRNG(cfg Config, c Cell) *xrand.RNG {
	return xrand.New(cfg.Seed).
		SplitString(c.Dev.ShortName()).
		SplitString(c.Kern.Name()).
		SplitString(c.Kern.InputLabel()).
		SplitString("scatter-reservoir")
}

// Scatter registers a Figure-2/4/6/8 style series over cells: one labeled
// point cloud per cell, its relative errors capped at capPct (<= 0
// disables the cap). All cells must belong to one device and kernel
// family. A cell carries one reservoir, so when two series register the
// same cell the first registration's cap applies to both.
func (p *FigurePass) Scatter(kernelName string, capPct float64, cells []Cell) func() ScatterSeries {
	stats := p.add(cells, func(s *cellStats, c Cell) {
		if s.scatter == nil {
			s.scatter = NewScatterReducer(capPct, p.maxPoints, scatterRNG(p.cfg, c))
		}
	})
	return func() ScatterSeries {
		out := ScatterSeries{Kernel: kernelName, CapPct: capPct}
		for _, s := range stats {
			out.Device = s.info.Device
			out.Series = append(out.Series, LabeledPoints{Label: s.info.Input, Points: s.scatter.Points()})
		}
		return out
	}
}

// Locality registers a Figure-3/5/7 style figure over cells: the
// unfiltered and the 2%-filtered FIT breakdown per input size.
func (p *FigurePass) Locality(kernelName string, cells []Cell) func() LocalityFigure {
	stats := p.add(cells, func(s *cellStats, _ Cell) {
		if s.all == nil {
			s.all = NewLocalityReducer(0)
			s.filtered = NewLocalityReducer(figureThresholdPct)
			s.fraction = NewFilteredFractionReducer(figureThresholdPct)
		}
	})
	return func() LocalityFigure {
		out := LocalityFigure{Kernel: kernelName, ThresholdPct: figureThresholdPct}
		for _, s := range stats {
			out.Device = s.info.Device
			out.Bars = append(out.Bars, LocalityBar{
				Input:            s.info.Input,
				All:              s.all.Breakdown(s.info.Exposure),
				Filtered:         s.filtered.Breakdown(s.info.Exposure),
				FilterMeaningful: s.fraction.Fraction() > 0,
			})
		}
		return out
	}
}

func needTally(s *cellStats, _ Cell) {
	if s.tally == nil {
		s.tally = NewTallyReducer()
	}
}

// Ratios registers the §V preamble SDC:DUE statistics, one row per cell.
func (p *FigurePass) Ratios(cells []Cell) func() []RatioRow {
	stats := p.add(cells, needTally)
	return func() []RatioRow {
		rows := make([]RatioRow, len(stats))
		for i, s := range stats {
			t := s.tally.Tally
			rows[i] = RatioRow{
				Device: s.info.Device,
				Kernel: s.info.Kernel,
				Input:  s.info.Input,
				SDC:    t.SDC,
				DUE:    t.Crash + t.Hang,
				Ratio:  t.SDCToDUERatio(),
			}
		}
		return rows
	}
}

// ResourceTally registers one cell's per-resource outcome accounting (the
// beam side of the §IV-D software-injector comparison).
func (p *FigurePass) ResourceTally(c Cell) func() map[fault.Resource]injector.Tally {
	s := p.add([]Cell{c}, needTally)[0]
	return func() map[fault.Resource]injector.Tally { return s.tally.ByResource }
}

// Scaling registers the §V-A input-size FIT scaling series over cells,
// unfiltered and 2%-filtered, growth taken relative to the first cell.
func (p *FigurePass) Scaling(cells []Cell) func() []ScalingRow {
	stats := p.add(cells, func(s *cellStats, _ Cell) {
		if s.counts == nil {
			s.counts = NewSDCCountReducer(0, figureThresholdPct)
		}
	})
	return func() []ScalingRow {
		var rows []ScalingRow
		var baseAll, baseF float64
		for i, s := range stats {
			all := s.counts.FIT(0, s.info.Exposure)
			fl := s.counts.FIT(1, s.info.Exposure)
			if i == 0 {
				baseAll, baseF = all, fl
			}
			row := ScalingRow{Device: s.info.Device, Input: s.info.Input, FITAll: all, FITFiltered: fl}
			if baseAll > 0 {
				row.GrowthAll = all / baseAll
			}
			if baseF > 0 {
				row.GrowthFilter = fl / baseF
			}
			rows = append(rows, row)
		}
		return rows
	}
}

// ABFT registers the §V-A ABFT-correctable share of SDCs per cell ("applying
// ABFT, DGEMM would be affected by only 20% to 40% of all errors on K40,
// and 60% to 80% on Xeon Phi").
func (p *FigurePass) ABFT(cells []Cell) func() []ABFTRow {
	stats := p.add(cells, func(s *cellStats, _ Cell) {
		if s.abft == nil {
			s.abft = NewABFTReducer()
		}
	})
	return func() []ABFTRow {
		rows := make([]ABFTRow, len(stats))
		for i, s := range stats {
			frac := s.abft.Coverage.CorrectableFraction()
			rows[i] = ABFTRow{
				Device:              s.info.Device,
				Input:               s.info.Input,
				CorrectableFraction: frac,
				ResidualFraction:    1 - frac,
			}
		}
		return rows
	}
}

// MassCheckRow is the CLAMR detector-coverage statistic (§V-D: 82%).
type MassCheckRow struct {
	Device       string
	CriticalSDCs int
	Detected     int
	Coverage     float64
}

// BuildMassCheckCoverage runs CLAMR strikes and evaluates the mass check
// against critical (above-threshold) SDCs. The profile and golden-state
// handle are prepared once; strikes fan out over the worker pool and the
// per-strike verdicts are merged in index order.
func BuildMassCheckCoverage(dev arch.Device, s Scale, cfg Config, thresholdPct float64) MassCheckRow {
	k := CLAMRKernel(s)
	prof := k.Profile(dev)
	golden := k.Golden(dev)
	rng := xrand.New(cfg.Seed).SplitString(dev.ShortName()).SplitString("masscheck")
	type verdict struct {
		critical, fired bool
	}
	verdicts := make([]verdict, cfg.Strikes)
	par.For(cfg.Strikes, cfg.Workers, func(i int) {
		sub := rng.Split(uint64(i) + 1)
		strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
		syn := dev.ResolveStrike(prof, strike, sub)
		if syn.Outcome != fault.SDC {
			return
		}
		rep, det := k.RunInjectedDetailedOn(golden, syn.Injection, sub)
		if !rep.Filter(thresholdPct).IsSDC() {
			return
		}
		verdicts[i] = verdict{critical: true, fired: det.MassCheckFired}
	})
	var stats detect.CoverageStats
	for _, v := range verdicts {
		if v.critical {
			stats.Add(v.fired)
		}
	}
	return MassCheckRow{
		Device:       dev.ShortName(),
		CriticalSDCs: stats.Evaluated,
		Detected:     stats.Detected,
		Coverage:     stats.Coverage(),
	}
}

// LocalityMap is Fig. 9: the 2D positions of one CLAMR SDC's incorrect
// elements.
type LocalityMap struct {
	Width, Height int
	Marked        [][]bool
	Count         int
}

// BuildCLAMRLocalityMap runs CLAMR strikes until an SDC with a sizeable
// error wave appears and maps it (Fig. 9).
//
// The search runs in two passes so the strike sweep can fan out without
// holding every candidate report in memory: pass one scores each strike in
// parallel (keeping only the incorrect-element count), then the winner —
// the lowest-scoring index, earliest on ties, exactly as the serial scan
// chose — is deterministically re-executed to materialise its report.
func BuildCLAMRLocalityMap(dev arch.Device, s Scale, cfg Config) LocalityMap {
	k := CLAMRKernel(s)
	prof := k.Profile(dev)
	golden := k.Golden(dev)
	// The paper's Fig. 9 shows a mid-flight error wave: prefer the SDC
	// whose corrupted area is closest to a third of the output — larger
	// ones have already flooded the whole domain, smaller ones have not
	// yet developed the wave shape.
	target := k.Side() * k.Side() / 3
	score := func(count int) int {
		d := count - target
		if d < 0 {
			return -d
		}
		return d
	}
	rng := xrand.New(cfg.Seed).SplitString(dev.ShortName()).SplitString("fig9")
	runStrike := func(i int) *metrics.Report {
		sub := rng.Split(uint64(i) + 1)
		strike := fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}
		syn := dev.ResolveStrike(prof, strike, sub)
		if syn.Outcome != fault.SDC {
			return nil
		}
		return k.RunInjectedOn(golden, syn.Injection, sub)
	}
	counts := make([]int, cfg.Strikes)
	par.For(cfg.Strikes, cfg.Workers, func(i int) {
		if rep := runStrike(i); rep != nil {
			counts[i] = rep.Count()
		}
	})
	bestIdx := -1
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if bestIdx < 0 || score(c) < score(counts[bestIdx]) {
			bestIdx = i
		}
	}
	m := LocalityMap{Width: k.Side(), Height: k.Side()}
	m.Marked = make([][]bool, m.Height)
	for i := range m.Marked {
		m.Marked[i] = make([]bool, m.Width)
	}
	if bestIdx >= 0 {
		best := runStrike(bestIdx)
		for _, mm := range best.Mismatches {
			m.Marked[mm.Coord.Y][mm.Coord.X] = true
		}
		m.Count = best.Count()
	}
	return m
}

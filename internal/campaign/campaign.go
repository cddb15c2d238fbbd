// Package campaign assembles full beam-test campaigns: device x kernel x
// input-size experiment matrices, strike sampling, outcome aggregation,
// FIT accounting and the per-figure data series of the paper's evaluation
// (§V). It is the layer cmd/figures, the benchmarks and the public facade
// build on.
package campaign

import (
	"context"
	"errors"
	"fmt"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/fit"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
)

// CellError is the typed failure of one experiment cell: it carries the
// cell's identity so a plan run can report which cell failed, and wraps
// the underlying cause. Every engine returns it in place of the panics
// the pre-plan API used for invalid cells.
type CellError struct {
	Device, Kernel, Input string
	Err                   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("campaign: cell %s/%s/%s: %v", e.Device, e.Kernel, e.Input, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// isCancellation reports whether err is the caller's context speaking —
// the one error class the engines must never wrap as a cell failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cellError wraps err with the cell's identity (no-op for nil and for
// context cancellation, which is the caller's signal, not the cell's
// fault).
func cellError(dev arch.Device, kern kernels.Kernel, err error) error {
	if err == nil || isCancellation(err) {
		return err
	}
	return &CellError{Device: dev.ShortName(), Kernel: kern.Name(), Input: kern.InputLabel(), Err: err}
}

// Config controls one experiment's statistical weight.
type Config struct {
	// Seed is the campaign's reproducibility root.
	Seed uint64
	// Strikes is the number of particle strikes to simulate per
	// (device, kernel, input) cell. The paper gathers enough beam time
	// for statistically significant counts; several hundred strikes per
	// cell reproduce the trends.
	Strikes int
	// BaseExecSeconds scales a profile's RelRuntime into wall seconds.
	BaseExecSeconds float64
	// Facility provides the neutron flux (default LANSCE).
	Facility beam.Facility
	// Workers sizes the strike worker pool (0 = GOMAXPROCS). Every strike
	// derives its randomness from an independent per-index RNG split and
	// outcomes are merged in index order, so Workers affects wall time
	// only — Results are bit-identical for any value. It is therefore
	// deliberately excluded from the store's CellKey.
	Workers int
	// StreamChunk sizes the streaming engine's execution window
	// (0 = DefaultStreamChunk). Like Workers it can never change results —
	// outcomes are consumed in strike-index order whatever the chunking —
	// it only sets the flush/checkpoint granularity and the engine's peak
	// outcome memory, so it too is excluded from CellKey.
	//
	// One carve-out: when Adaptive is set with CheckEvery == 0, the look
	// spacing defaults to the effective chunk, and the look schedule DOES
	// change where a cell stops. The resolved spacing (not StreamChunk
	// itself) is what enters CellKey.
	StreamChunk int
	// Adaptive, when non-nil, enables sequential early stopping: the
	// streaming engine evaluates Adaptive's stop rule at every chunk
	// boundary and ends the cell once its SDC-proportion confidence
	// interval is tight enough (DESIGN.md §11). Only RunPlanCell,
	// ResumePlanCell and Runner read it; Run, RunCtx and the
	// RunStreaming* engine calls always execute the full budget.
	Adaptive *AdaptiveSpec
}

// DefaultConfig returns the standard campaign configuration.
func DefaultConfig(seed uint64, strikes int) Config {
	return Config{
		Seed:            seed,
		Strikes:         strikes,
		BaseExecSeconds: 1.0,
		Facility:        beam.LANSCE,
	}
}

// Result is one experiment cell's aggregated outcome.
type Result struct {
	Device  string
	Kernel  string
	Input   string
	Profile arch.Profile

	Strikes int
	Tally   injector.Tally
	Reports []*metrics.Report // one per SDC execution
	// ReportResource[i] is the struck resource behind Reports[i],
	// enabling the selective-hardening analysis the paper proposes as
	// future work (§VI).
	ReportResource []fault.Resource
	// ResourceTally is the per-resource outcome accounting.
	ResourceTally map[fault.Resource]injector.Tally
	Exposure      beam.Exposure
}

// Run simulates cfg.Strikes strikes of kern on dev and returns the
// retained Result. It is the compat face of RunCtx: it cannot be
// cancelled and panics on an invalid cell. Plan-driven callers use
// RunCtx, which returns a typed *CellError instead.
func Run(dev arch.Device, kern kernels.Kernel, cfg Config) *Result {
	res, err := RunCtx(context.Background(), dev, kern, cfg)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// RunCtx executes one experiment cell under a context: one streaming
// pass with the retaining resultSink, which clones every SDC report and
// rebuilds the full *Result. Nothing is cached — every call runs the
// strike loop. The streaming engine consumes outcomes in strike-index
// order whatever the Workers and StreamChunk settings, so the Result is
// bit-identical to a serial execution for a given seed (pinned by
// parallel_test.go and the golden/property suites). An invalid cell
// returns a *CellError; a cancelled context returns ctx.Err() at the next
// chunk boundary.
func RunCtx(ctx context.Context, dev arch.Device, kern kernels.Kernel, cfg Config) (*Result, error) {
	sink := newResultSink()
	info, err := RunStreamingFromCtx(ctx, dev, kern, cfg, 0, sink)
	if err != nil {
		return nil, err
	}
	return sink.result(info), nil
}

// SDCFIT returns the SDC failure rate in FIT, optionally applying the
// relative-error filter first (executions whose mismatches are all below
// the threshold are no longer errors, §III).
func (r *Result) SDCFIT(thresholdPct float64) float64 {
	count := 0
	for _, rep := range r.Reports {
		if thresholdPct <= 0 || rep.SDCAbove(thresholdPct) {
			count++
		}
	}
	return fit.FITFromCampaign(count, r.Exposure)
}

// DUEFIT returns the crash+hang (detectable-unrecoverable) rate in FIT.
func (r *Result) DUEFIT() float64 {
	return fit.FITFromCampaign(r.Tally.Crash+r.Tally.Hang, r.Exposure)
}

// LocalityBreakdown splits the SDC FIT by spatial pattern after applying
// the relative-error filter (thresholdPct <= 0 keeps all mismatches):
// the data behind Figures 3, 5 and 7.
func (r *Result) LocalityBreakdown(thresholdPct float64) fit.Breakdown {
	counts := make(map[metrics.Pattern]int)
	for _, rep := range r.Reports {
		eff := rep
		if thresholdPct > 0 {
			eff = rep.Filter(thresholdPct)
		}
		if !eff.IsSDC() {
			continue
		}
		counts[eff.Locality()]++
	}
	bd := fit.Breakdown{}
	for _, p := range metrics.Patterns {
		bd.Labels = append(bd.Labels, p.String())
		bd.Values = append(bd.Values, fit.FITFromCampaign(counts[p], r.Exposure))
	}
	return bd
}

// ScatterPoint is one SDC execution in a Figure-2/4/6/8 style scatter.
type ScatterPoint struct {
	IncorrectElements int
	MeanRelErrPct     float64
}

// Scatter extracts the (incorrect elements, mean relative error) points,
// capping the per-element relative error at capPct as the paper's figures
// do for readability (capPct <= 0 disables capping).
func (r *Result) Scatter(capPct float64) []ScatterPoint {
	limit := capPct
	if limit <= 0 {
		limit = 1e308
	}
	pts := make([]ScatterPoint, 0, len(r.Reports))
	for _, rep := range r.Reports {
		pts = append(pts, ScatterPoint{
			IncorrectElements: rep.Count(),
			MeanRelErrPct:     rep.MeanRelErrPct(limit),
		})
	}
	return pts
}

// FilteredFraction is the fraction of SDC executions fully cleared by the
// relative-error filter (§V: 50-75% for DGEMM on K40, ~95% for HotSpot).
func (r *Result) FilteredFraction(thresholdPct float64) float64 {
	if len(r.Reports) == 0 {
		return 0
	}
	cleared := 0
	for _, rep := range r.Reports {
		if !rep.SDCAbove(thresholdPct) {
			cleared++
		}
	}
	return float64(cleared) / float64(len(r.Reports))
}

// ToLog converts the result into the public log format. Masked outcomes
// carry no per-execution payload and are recorded as the log's Masked
// count (not as events), so a parsed log reconstructs the full tally.
func (r *Result) ToLog(seed uint64) *logdata.Log {
	l := &logdata.Log{
		Device:     r.Device,
		Kernel:     r.Kernel,
		Input:      r.Input,
		Facility:   r.Exposure.Facility.Name,
		Seed:       seed,
		Executions: r.Exposure.Executions(),
		BeamHours:  r.Exposure.BeamHours,
		OutputDims: r.Profile.OutputDims,
		Masked:     r.Tally.Masked,
	}
	exec := 0
	for i, rep := range r.Reports {
		exec += 13 // arbitrary but deterministic spacing
		ev := logdata.Event{
			Class:      fault.SDC,
			Exec:       exec,
			Mismatches: rep.Mismatches,
		}
		if i < len(r.ReportResource) {
			ev.Resource = r.ReportResource[i].String()
		}
		l.Events = append(l.Events, ev)
	}
	for i := 0; i < r.Tally.Crash; i++ {
		exec += 7
		l.Events = append(l.Events, logdata.Event{Class: fault.Crash, Exec: exec})
	}
	for i := 0; i < r.Tally.Hang; i++ {
		exec += 11
		l.Events = append(l.Events, logdata.Event{Class: fault.Hang, Exec: exec})
	}
	return l
}

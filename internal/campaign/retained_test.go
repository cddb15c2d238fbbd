package campaign

// This file freezes the retained campaign path as a reference
// implementation: a Result that clones every SDC report and computes each
// statistic by re-walking the retained reports. It shares the streaming
// engine (one RunStreamingFromCtx pass through resultSink), so the golden,
// stream, parallel and figure suites can pin every online reducer — and
// everything built on them — bit-identical to the straightforward
// batch computation.

import (
	"context"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/fit"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/logdata"
	"radcrit/internal/metrics"
)

// Result is one experiment cell's aggregated outcome, every SDC report
// retained.
type Result struct {
	Device  string
	Kernel  string
	Input   string
	Profile arch.Profile

	Strikes int
	Tally   injector.Tally
	Reports []*metrics.Report // one per SDC execution
	// ReportResource[i] is the struck resource behind Reports[i].
	ReportResource []fault.Resource
	// ResourceTally is the per-resource outcome accounting.
	ResourceTally map[fault.Resource]injector.Tally
	Exposure      beam.Exposure
}

// Run simulates cfg.Strikes strikes of kern on dev and returns the
// retained Result; it panics on an invalid cell.
func Run(dev arch.Device, kern kernels.Kernel, cfg Config) *Result {
	res, err := RunCtx(context.Background(), dev, kern, cfg)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// RunCtx executes one experiment cell under a context: one streaming
// pass with the retaining resultSink. An invalid cell returns a
// *CellError; a cancelled context returns ctx.Err() at the next chunk
// boundary.
func RunCtx(ctx context.Context, dev arch.Device, kern kernels.Kernel, cfg Config) (*Result, error) {
	sink := newResultSink()
	info, err := RunStreamingFromCtx(ctx, dev, kern, cfg, 0, sink)
	if err != nil {
		return nil, err
	}
	return sink.result(info), nil
}

// SDCFIT returns the SDC failure rate in FIT, optionally applying the
// relative-error filter first.
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
// the relative-error filter (thresholdPct <= 0 keeps all mismatches).
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

// Scatter extracts the (incorrect elements, mean relative error) points,
// capping the per-element relative error at capPct (<= 0 disables it).
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
// relative-error filter.
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

// ToLog converts the result into the public log format: SDC events at
// exec spacing 13, then the crashes and hangs from their counts; masked
// outcomes are the log's Masked count.
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
		exec += 13
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

// resultSink rebuilds the retained *Result from the outcome stream. The
// engine recycles reports after the chunk's sinks consume them, so
// retention means cloning.
type resultSink struct {
	tally *TallyReducer
	res   *Result
}

func newResultSink() *resultSink {
	return &resultSink{tally: NewTallyReducer(), res: &Result{}}
}

// Consume implements Sink.
func (s *resultSink) Consume(i int, out injector.Outcome) {
	s.tally.Consume(i, out)
	if out.Class == fault.SDC {
		s.res.Reports = append(s.res.Reports, out.Report.Clone())
		s.res.ReportResource = append(s.res.ReportResource, out.Resource)
	}
}

// result stamps the cell identity onto the accumulated outcome.
func (s *resultSink) result(info StreamInfo) *Result {
	s.res.Tally = s.tally.Tally
	s.res.ResourceTally = s.tally.ByResource
	s.res.Device = info.Device
	s.res.Kernel = info.Kernel
	s.res.Input = info.Input
	s.res.Profile = info.Profile
	s.res.Strikes = info.Strikes
	s.res.Exposure = info.Exposure
	return s.res
}

package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"radcrit/internal/fit"
	"radcrit/internal/injector"
)

// Summary is one cell's aggregated statistics under the plan's
// thresholds, folded from the streaming engine's online reducers. The
// fixed-budget, adaptive, daemon and fleet paths all produce it, and it
// is bit-identical to the same statistics computed from a retained
// Result (pinned by the golden suite).
type Summary struct {
	// Thresholds are the relative-error filters (percent) the per-index
	// slices below are computed under.
	Thresholds []float64
	// Tally is the outcome census of the cell.
	Tally injector.Tally
	// SDCFIT[k] is the SDC failure rate (FIT, arbitrary units) under
	// Thresholds[k].
	SDCFIT []float64
	// Locality[k] is the spatial-pattern FIT breakdown under
	// Thresholds[k].
	Locality []fit.Breakdown
	// FilteredFraction[k] is the share of SDC executions fully cleared by
	// Thresholds[k].
	FilteredFraction []float64
	// DUEFIT is the crash+hang failure rate.
	DUEFIT float64
}

// CellOutcome is one plan cell's execution record.
type CellOutcome struct {
	// Spec is the cell as the plan named it.
	Spec CellSpec
	// Info is the resolved cell identity and exposure (zero if the cell
	// failed before its session was established). On a cancelled cell
	// both Info and Summary are rescaled to the strikes actually
	// consumed, so rates derived from either are consistent.
	Info StreamInfo
	// Summary holds the cell's statistics; on a cancelled cell it holds
	// the chunk-aligned partial state accumulated so far. Nil when the
	// cell failed outright.
	Summary *Summary
	// Err is the cell's failure: a *CellError for an invalid cell, or
	// ctx.Err() if the run was cancelled while this cell was in flight.
	Err error
}

// PlanResult is a Runner's record of one plan execution, cell for cell in
// plan order. A cancelled or partially failed run still returns a
// PlanResult holding every outcome gathered so far.
type PlanResult struct {
	// Plan is the executed plan.
	Plan *Plan
	// Thresholds are the effective summary thresholds.
	Thresholds []float64
	// Cells holds one outcome per plan cell. On early cancellation the
	// tail cells carry Err == ctx.Err() and no summary.
	Cells []*CellOutcome
}

// Err joins the per-cell errors (nil when every cell succeeded).
func (r *PlanResult) Err() error {
	var errs []error
	for _, c := range r.Cells {
		if c != nil && c.Err != nil {
			errs = append(errs, c.Err)
		}
	}
	return errors.Join(errs...)
}

// Runner executes a validated plan cell by cell through the streaming
// engine: summaries come from online reducers, no reports are retained,
// and peak memory per cell is O(StreamChunk + reducer state). It honours
// cancellation at chunk boundaries, returns the partial PlanResult
// gathered so far together with ctx.Err(), and leaks no goroutines. An
// invalid plan is rejected up front (Plan.Validate) — no panic is
// reachable for any plan value.
//
// A plan without an Adaptive spec is one epoch with no stop rule: every
// cell runs its full budget and its outcome is exactly RunPlanCell's. A
// plan with a spec runs in budget epochs: every cell starts with the
// plan's strike budget; cells whose confidence interval reaches the
// target stop early and return their unused strikes to a shared pool;
// between epochs the pool is re-dealt (in chunk quanta) to the open cells
// with the widest intervals, widest first. The loop ends when every cell
// has stopped, the pool is too small to deal, or MaxEpochs is reached.
//
// Reallocation is a pure function of the epoch log — cells are ranked by
// the same half-width the #EPOCH records carry, ties break on plan index
// — so a re-run of the same plan deals the same budgets. Each cell's
// summary is byte-identical to a straight run with Strikes = the strikes
// it actually consumed (the early-stop determinism contract), whatever
// epoch history produced that number.
type Runner struct {
	// Logs, when non-nil, supplies a checkpoint-log writer per cell. The
	// runner streams the cell's #CHK (and, on an adaptive plan, #EPOCH)
	// records into it and closes it when the plan finishes; an error
	// creating a log fails that cell. On cancellation the log is left
	// without its #END trailer — resumable, like every interrupted
	// checkpoint log.
	Logs func(i int, spec CellSpec) (io.WriteCloser, error)
}

// cellState is one cell's long-lived state across epochs.
type cellState struct {
	run  *cellRun
	logw io.WriteCloser

	budget  int // current strike allocation
	started bool
	failed  bool
}

// done reports the runner will not advance the cell again: its stop rule
// fired, or a fixed-budget cell ran its budget.
func (st *cellState) done() bool {
	if st.run.es == nil {
		return st.consumed() >= st.budget
	}
	return st.run.es.stopped
}

// open reports the cell still wants strikes: neither done nor failed.
func (st *cellState) open() bool { return !st.failed && !st.done() }

// consumed is the chunk-aligned strike count executed so far.
func (st *cellState) consumed() int { return st.run.acc.Consumed() }

// Run executes p. Cell failures are recorded in their outcomes and joined
// into the returned error.
func (r *Runner) Run(ctx context.Context, p *Plan) (*PlanResult, error) {
	res, cells, err := planStart(ctx, p)
	if err != nil {
		// res is non-nil (with cells marked) for build-phase cancellation,
		// nil for an invalid plan.
		return res, err
	}
	baseCfg, rule, adaptive := adaptiveConfig(p.Config())
	chunk, maxEpochs := baseCfg.StreamChunk, 1
	if adaptive {
		maxEpochs = baseCfg.Adaptive.MaxEpochs
	}

	states := make([]*cellState, len(cells))
	for i := range cells {
		run, _ := newCellRun(baseCfg, res.Thresholds)
		st := &cellState{run: run, budget: baseCfg.Strikes}
		states[i] = st
		if r.Logs == nil {
			continue
		}
		info, err := CellInfo(cells[i].Dev, cells[i].Kern, baseCfg)
		if err != nil {
			st.failed = true
			res.Cells[i].Err = err
			continue
		}
		w, err := r.Logs(i, p.Cells[i])
		if err != nil {
			st.failed = true
			res.Cells[i].Err = cellError(cells[i].Dev, cells[i].Kern, err)
			continue
		}
		st.logw = w
		if run.chk, err = NewCheckpointSink(w, info, baseCfg.Seed); err != nil {
			st.failed = true
			res.Cells[i].Err = cellError(cells[i].Dev, cells[i].Kern, err)
		}
	}

	pool := 0
	for epoch := 1; epoch <= maxEpochs; epoch++ {
		for i, cell := range cells {
			st := states[i]
			if !st.open() || st.consumed() >= st.budget {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				return r.finishCancelled(res, states, cerr)
			}
			cfg := baseCfg
			cfg.Strikes = st.budget
			if err := st.run.advance(ctx, cell, cfg, st.consumed(), epoch, nil); err != nil {
				if isCancellation(err) {
					st.started = true
					return r.finishCancelled(res, states, ctx.Err())
				}
				st.failed = true
				res.Cells[i].Err = err
				continue
			}
			st.started = true
			if adaptive && st.done() {
				pool += st.budget - st.consumed()
				st.budget = st.consumed()
			}
		}

		var open []int
		for i, st := range states {
			if st.open() {
				open = append(open, i)
			}
		}
		if len(open) == 0 || epoch == maxEpochs || pool < chunk {
			break
		}
		// Reallocate the freed pool to the widest intervals, widest first
		// (ties in plan order), in chunk quanta so continuation runs stay
		// look-aligned. Each open cell gets an equal chunk-quantized
		// share; the remainder is dealt a chunk at a time down the
		// ranking.
		sort.SliceStable(open, func(a, b int) bool {
			sa, sb := states[open[a]], states[open[b]]
			ha := rule.HalfWidthAt(sa.run.es.sdc, sa.consumed())
			hb := rule.HalfWidthAt(sb.run.es.sdc, sb.consumed())
			if ha != hb {
				return ha > hb
			}
			return open[a] < open[b]
		})
		per := pool / len(open)
		per -= per % chunk
		rem := pool - per*len(open)
		for _, idx := range open {
			add := per
			if rem >= chunk {
				add += chunk
				rem -= chunk
			}
			states[idx].budget += add
			pool -= add
		}
	}

	for i, st := range states {
		out := res.Cells[i]
		if st.failed || !st.started {
			if out.Err == nil && !st.started {
				out.Err = fmt.Errorf("campaign: cell %d never ran", i)
			}
		} else {
			out.Info, out.Summary, _ = st.run.result(nil)
		}
		r.closeCell(st, out)
	}
	return res, res.Err()
}

// closeCell seals a cell's checkpoint log (trailer + file handle).
func (r *Runner) closeCell(st *cellState, out *CellOutcome) {
	if st.run.chk != nil {
		if err := st.run.chk.Close(); err != nil && out.Err == nil {
			out.Err = err
		}
		st.run.chk = nil
	}
	if st.logw != nil {
		if err := st.logw.Close(); err != nil && out.Err == nil {
			out.Err = err
		}
		st.logw = nil
	}
}

// finishCancelled fills partial outcomes after an external cancellation.
// A done cell (stopped, or a fixed-budget cell that ran its budget) keeps
// its full outcome; a started cell that is not done — the in-flight one,
// or an adaptive cell still short of its target — keeps its
// prefix-rescaled info and partial summary with ctx's error; cells never
// reached are marked with ctx's error. Checkpoint logs are left WITHOUT
// their #END trailer so they stay resumable.
func (r *Runner) finishCancelled(res *PlanResult, states []*cellState, cerr error) (*PlanResult, error) {
	for i, st := range states {
		out := res.Cells[i]
		switch {
		case st.failed:
			// Keeps its own error.
		case st.started && st.done():
			out.Info, out.Summary, _ = st.run.result(nil)
		case st.started:
			out.Info, out.Summary, out.Err = st.run.result(cerr)
		default:
			out.Err = cerr
		}
		// Close file handles but never the CheckpointSink: no #END means
		// the log resumes.
		if st.logw != nil {
			_ = st.logw.Close()
			st.logw = nil
		}
	}
	return res, cerr
}

// planStart validates and builds the plan (honouring ctx between kernel
// constructions — the golden simulations happen here) and allocates the
// shared result shell. An invalid plan returns (nil, nil, err); a
// cancellation during the build phase returns the shell with every cell
// marked ctx.Err(), honouring the contract that a cancelled run always
// yields a partial PlanResult.
func planStart(ctx context.Context, p *Plan) (*PlanResult, []Cell, error) {
	cells, err := p.BuildCtx(ctx)
	if err != nil {
		if isCancellation(err) {
			res := planShell(p)
			markCancelled(res.Cells, err)
			return res, nil, err
		}
		return nil, nil, err
	}
	return planShell(p), cells, nil
}

// planShell allocates a PlanResult with one empty outcome per plan cell.
func planShell(p *Plan) *PlanResult {
	res := &PlanResult{
		Plan:       p,
		Thresholds: p.EffectiveThresholds(),
		Cells:      make([]*CellOutcome, len(p.Cells)),
	}
	for i := range res.Cells {
		res.Cells[i] = &CellOutcome{Spec: p.Cells[i]}
	}
	return res
}

// markCancelled stamps ctx's error on outcomes the runner never reached.
func markCancelled(outs []*CellOutcome, err error) {
	for _, o := range outs {
		if o.Err == nil && o.Summary == nil {
			o.Err = err
		}
	}
}

// streamReducers is the reducer stack a SummaryAccumulator folds a cell
// into.
type streamReducers struct {
	tally  *TallyReducer
	counts *SDCCountReducer
	locs   []*LocalityReducer
	fracs  []*FilteredFractionReducer
}

func newStreamReducers(ts []float64) *streamReducers {
	r := &streamReducers{
		tally:  NewTallyReducer(),
		counts: NewSDCCountReducer(ts...),
	}
	for _, t := range ts {
		r.locs = append(r.locs, NewLocalityReducer(t))
		r.fracs = append(r.fracs, NewFilteredFractionReducer(t))
	}
	return r
}

// consumed counts the strikes the reducer stack has actually seen.
func (r *streamReducers) consumed() int {
	t := r.tally.Tally
	return t.Masked + t.SDC + t.Crash + t.Hang
}

// prefixInfo rescales a cell's exposure to the strikes consumed before a
// cancellation, so partial FIT values are true rates over the prefix.
func prefixInfo(info StreamInfo, consumed int) StreamInfo {
	info.Strikes = consumed
	info.Exposure.BeamHours = info.Exposure.HoursForStrikes(float64(consumed))
	return info
}

func (r *streamReducers) sinks() []Sink {
	sinks := []Sink{r.tally, r.counts}
	for _, l := range r.locs {
		sinks = append(sinks, l)
	}
	for _, f := range r.fracs {
		sinks = append(sinks, f)
	}
	return sinks
}

// summary folds the reducer state under the cell's exposure. It is valid
// on partial (cancelled) state too: every statistic is over the
// chunk-aligned prefix consumed so far.
func (r *streamReducers) summary(ts []float64, info StreamInfo) *Summary {
	s := &Summary{
		Thresholds: append([]float64(nil), ts...),
		Tally:      r.tally.Tally,
		DUEFIT:     fit.FITFromCampaign(r.tally.Tally.Crash+r.tally.Tally.Hang, info.Exposure),
	}
	for k := range ts {
		s.SDCFIT = append(s.SDCFIT, r.counts.FIT(k, info.Exposure))
		s.Locality = append(s.Locality, r.locs[k].Breakdown(info.Exposure))
		s.FilteredFraction = append(s.FilteredFraction, r.fracs[k].Fraction())
	}
	return s
}

package campaign

// This file is the serving-layer surface: summary accumulation as a
// Sink and the one per-cell executor, cellRun — a summary accumulator,
// an optional checkpoint log and an optional stop rule, advanced through
// the engine from any strike index. A fresh logged cell is a resume of an
// empty log, so RunPlanCell (no log), ResumePlanCell (an event log,
// possibly empty), RecoverLog, RunCheckpointed (a reducer-state
// checkpoint, checkpoint.go) and every Runner epoch share one early-stop
// path, and a daemon that interleaves caching and checkpointing runs the
// exact engine path the in-process Runner is pinned against.

import (
	"context"
	"fmt"
	"io"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/logdata"
)

// SummaryAccumulator folds a streaming outcome sequence into a Summary —
// the per-cell reducer stack, exported as a Sink so serving layers can
// combine it with their own sinks (checkpoint logs, progress relays) on
// one engine pass. It additionally replays salvaged event-log events or
// restores a reducer-state checkpoint (checkpoint.go), which is what
// makes a resumed cell's summary bit-identical to an uninterrupted run:
// the prefix comes from the exact record, the tail from the
// deterministic per-index RNG splits.
//
// Not safe for concurrent use; the engine's in-order consume loop is a
// single goroutine (Sink contract).
type SummaryAccumulator struct {
	ts    []float64
	red   *streamReducers
	sinks []Sink
}

// NewSummaryAccumulator returns an empty accumulator summarising under
// the given thresholds (a plan's EffectiveThresholds).
func NewSummaryAccumulator(thresholds []float64) *SummaryAccumulator {
	ts := append([]float64(nil), thresholds...)
	red := newStreamReducers(ts)
	return &SummaryAccumulator{ts: ts, red: red, sinks: red.sinks()}
}

// Consume implements Sink.
func (a *SummaryAccumulator) Consume(i int, out injector.Outcome) {
	for _, s := range a.sinks {
		s.Consume(i, out)
	}
}

// AddMasked records n masked executions without per-strike payloads — the
// form a checkpoint log carries them in (they are a count in the #CHK
// record, not events). Replay-only; the live path counts masked outcomes
// through Consume.
func (a *SummaryAccumulator) AddMasked(n int) {
	a.red.tally.Tally.Masked += n
}

// ReplayEvent feeds one salvaged checkpoint-log event into the reducers,
// its report rebuilt by logdata.Event.Report, so every summary statistic
// derived from a replayed prefix matches the live run bit for bit. dims
// is the cell's output shape (the log header's dims). The injection
// scope is not reconstructed — no reducer reads it.
func (a *SummaryAccumulator) ReplayEvent(ev logdata.Event, dims grid.Dims) {
	out := injector.Outcome{Class: ev.Class, Report: ev.Report(dims)}
	if r, ok := fault.ResourceFromString(ev.Resource); ok {
		out.Resource = r
	}
	a.Consume(ev.Exec, out)
}

// Consumed returns the number of strikes folded in so far (replayed and
// live), the prefix length a cancelled cell's summary covers.
func (a *SummaryAccumulator) Consumed() int { return a.red.consumed() }

// Summary renders the accumulated state under the cell's exposure. Valid
// on partial (cancelled) state too, under a prefix-rescaled info.
func (a *SummaryAccumulator) Summary(info StreamInfo) *Summary {
	return a.red.summary(a.ts, info)
}

// RunPlanCell executes one resolved plan cell through the streaming
// engine and returns its StreamInfo and Summary — a fixed-budget
// Runner's per-cell body, exported for serving layers. The extra sinks
// observe the same in-order outcome stream after the accumulator (so a
// CheckpointSink's chunk flush always covers what the summary has
// consumed).
//
// On cancellation the returned info is rescaled to the chunk-aligned
// prefix actually consumed and the partial summary over that prefix is
// returned alongside ctx.Err(); on any other error the summary is nil.
//
// When cfg.Adaptive is set the cell may stop early: the stop rule is
// evaluated at every chunk boundary (the stream chunk is forced to the
// look spacing), and a rule-triggered stop is a COMPLETION, not an error
// — the info and summary come back rescaled to the stop point with a nil
// error, and an #EPOCH record lands in any EpochRecorder among the extra
// sinks. Callers distinguish "stopped early" from "ran the budget" by
// Info.Strikes, never by the error.
func RunPlanCell(ctx context.Context, cell Cell, cfg Config, thresholds []float64, extra ...Sink) (StreamInfo, *Summary, error) {
	r, cfg := newCellRun(cfg, thresholds)
	return r.result(r.advance(ctx, cell, cfg, 0, 1, extra))
}

// ResumePlanCell runs a cell under the checkpoint log at w, resuming from
// whatever log a previous execution left in truncated — possibly none.
// The salvaged prefix (everything up to the last complete #CHK record)
// is replayed into the summary and into the new log, and only the
// uncovered tail runs. The final summary is bit-identical to an
// uninterrupted run's (per-index RNG splits reproduce the tail; hex-float
// logging reproduces the prefix), and the log written to w is
// event-for-event what an uninterrupted run would have written — so a
// resume interrupted again stays resumable, indefinitely. An empty
// truncated log is a fresh run: w then receives exactly the bytes of a
// RunPlanCell run feeding a CheckpointSink.
//
// The extra sinks observe the outcome stream after the accumulator and
// the checkpoint log, so a chunk they see flushed is already in w. The
// log must describe this cell and seed; a mismatch is an error rather
// than a silently wrong summary. On cancellation mid-tail the returned
// info/summary cover the consumed prefix (like RunPlanCell) and w holds a
// resumable log without its #END trailer.
func ResumePlanCell(ctx context.Context, truncated io.Reader, w io.Writer, cell Cell, cfg Config, thresholds []float64, extra ...Sink) (StreamInfo, *Summary, error) {
	r, cfg := newCellRun(cfg, thresholds)
	return r.result(r.resume(ctx, truncated, w, cell, cfg, extra))
}

// cellRun is the one per-cell execution primitive: a summary
// accumulator, an optional checkpoint log and an optional stop rule,
// advanced through the engine from any strike index. RunPlanCell,
// ResumePlanCell (and RecoverLog through it), RunCheckpointed and every
// Runner epoch are arrangements of it, so the early-stop wiring exists
// once.
type cellRun struct {
	acc  *SummaryAccumulator
	chk  *CheckpointSink // nil: no log
	es   *earlyStopSink  // nil: fixed budget
	info StreamInfo      // the cell's metadata at its current budget
}

// newCellRun prepares a run summarising under thresholds, with the stop
// rule armed when cfg is adaptive. It returns cfg resolved by
// adaptiveConfig, the form advance runs under.
func newCellRun(cfg Config, thresholds []float64) (*cellRun, Config) {
	cfg, rule, adaptive := adaptiveConfig(cfg)
	r := &cellRun{acc: NewSummaryAccumulator(thresholds)}
	if adaptive {
		r.es = &earlyStopSink{rule: rule}
	}
	return r, cfg
}

// advance runs strikes [from, cfg.Strikes) into the accumulator, the
// checkpoint log, the extra sinks and, last, the stop rule — last so that
// every checkpoint has flushed before a stop is requested. A
// rule-triggered stop is a completion: advance returns nil with the stop
// point in acc.Consumed(). An adaptive step ends with an #EPOCH mark for
// epoch in every EpochRecorder among the sinks; a rule that already
// fired (at a resumed log's salvage point) runs nothing but still marks.
func (r *cellRun) advance(ctx context.Context, cell Cell, cfg Config, from, epoch int, extra []Sink) error {
	sinks := make([]Sink, 0, len(extra)+3)
	sinks = append(sinks, r.acc)
	if r.chk != nil {
		sinks = append(sinks, r.chk)
	}
	sinks = append(sinks, extra...)
	if r.es == nil || !r.es.stopped {
		runCtx, run := ctx, sinks
		if r.es != nil {
			var cancel context.CancelCauseFunc
			runCtx, cancel = context.WithCancelCause(ctx)
			defer cancel(nil)
			r.es.cancel = cancel
			run = append(run, r.es)
		}
		info, err := RunStreamingFromCtx(runCtx, cell.Dev, cell.Kern, cfg, from, run...)
		r.info = info
		// The stop rule cancelled, not the caller: the cell is complete
		// at its chunk-aligned stop point.
		if err != nil && !(r.es != nil && r.es.stopped && ctx.Err() == nil) {
			return err
		}
	}
	if r.es != nil {
		recordEpoch(sinks, r.es.mark(epoch, cfg.Strikes, r.acc.Consumed()))
	}
	return nil
}

// result renders the run after a step that returned err. A cancelled or
// adaptive run's info is rescaled to the strikes actually consumed, so
// its rates are true over the executed prefix; any error other than
// cancellation yields no summary.
func (r *cellRun) result(err error) (StreamInfo, *Summary, error) {
	info := r.info
	if err != nil && !isCancellation(err) {
		return info, nil, err
	}
	if err != nil || r.es != nil {
		info = prefixInfo(info, r.acc.Consumed())
	}
	return info, r.acc.Summary(info), err
}

// resume salvages the truncated log, validates it describes (cell, cfg),
// replays the prefix into the run and into a new checkpoint log at w,
// then advances from the salvage point. The #END trailer is written only
// on full completion, so an interrupted resume leaves w resumable.
// Under an adaptive cfg the salvaged prefix is re-judged exactly as the
// original run judged it: the replayed events seed the stop rule's SDC
// count, salvaged #EPOCH marks are re-emitted at their original positions
// (the parsers' count-consistency checks demand it), the salvage point
// itself is evaluated as a look — a run whose stop decision was made but
// whose log tore before recording it stops again without re-running
// anything — and the tail evaluates live at every boundary. The
// decisions are pure functions of (SDC, trials), so the resumed cell
// stops where the uninterrupted one did.
func (r *cellRun) resume(ctx context.Context, truncated io.Reader, w io.Writer, cell Cell, cfg Config, extra []Sink) error {
	res, err := logdata.ParseResume(truncated)
	if err != nil {
		return err
	}
	if r.info, err = CellInfo(cell.Dev, cell.Kern, cfg); err != nil {
		return err
	}
	info := r.info
	// Header fields are serialised space-escaped and the escaping is lossy
	// (logdata.HeaderField), so the live metadata is escaped before the
	// comparison — the parsed side cannot be unescaped.
	if res.Log.Device != "" &&
		(res.Log.Device != logdata.HeaderField(info.Device) ||
			res.Log.Kernel != logdata.HeaderField(info.Kernel) ||
			res.Log.Input != logdata.HeaderField(info.Input)) {
		return fmt.Errorf("campaign: log describes %s/%s/%s, not %s/%s/%s",
			res.Log.Device, res.Log.Kernel, res.Log.Input, info.Device, info.Kernel, info.Input)
	}
	if res.Log.Device != "" && res.Log.Seed != cfg.Seed {
		return fmt.Errorf("campaign: log was written under seed %d, not %d — the tail would not match",
			res.Log.Seed, cfg.Seed)
	}
	if r.chk, err = NewCheckpointSink(w, info, cfg.Seed); err != nil {
		return err
	}
	r.chk.sw.AddMasked(res.Masked)
	r.acc.AddMasked(res.Masked)
	// Replay events with the salvaged epoch marks interleaved where they
	// originally stood: a mark at consumed c precedes the first event at
	// strike index >= c, so every re-emitted #EPOCH still agrees with the
	// cumulative SDC count at its position — the consistency both parsers
	// enforce.
	marks := res.Log.Epochs
	for _, ev := range res.Log.Events {
		for len(marks) > 0 && marks[0].Consumed <= ev.Exec {
			if err := r.chk.RecordEpoch(marks[0]); err != nil {
				return err
			}
			marks = marks[1:]
		}
		if err := r.chk.sw.WriteEvent(ev); err != nil {
			return err
		}
		r.acc.ReplayEvent(ev, info.Profile.OutputDims)
		if r.es != nil {
			r.es.seed(ev)
		}
	}
	for _, m := range marks {
		if err := r.chk.RecordEpoch(m); err != nil {
			return err
		}
	}
	if !res.Complete {
		if res.Next > 0 {
			// Flush a checkpoint covering the replayed prefix before any
			// tail strike runs: the new log is now durable to at least the
			// point the old one reached, so an interruption during the
			// tail — or even before its first chunk — can never lose
			// salvaged progress.
			if err := r.chk.sw.Checkpoint(res.Next); err != nil {
				return err
			}
			if r.es != nil {
				// The salvage point is a look: a prefix that already
				// satisfies the rule stops here, re-running nothing.
				r.es.evaluate(res.Next)
			}
		}
		epoch := 1
		if n := len(res.Log.Epochs); n > 0 {
			epoch = res.Log.Epochs[n-1].Epoch + 1
		}
		if err := r.advance(ctx, cell, cfg, res.Next, epoch, extra); err != nil {
			return err
		}
	}
	return r.chk.Close()
}

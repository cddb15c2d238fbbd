package campaign

// This file is the serving layers' crash checkpoint: a snapshot of a
// cell's SummaryAccumulator, one JSON line per chunk flush. The daemon
// and the fleet need a crash to cost at most one chunk and the resumed
// summary to be bit-identical to an uninterrupted run; both follow from
// the reducers' integer state at a chunk boundary plus the engine's
// per-index RNG splits, so the checkpoint is that state and nothing
// else — a few hundred bytes, however many outputs the cell corrupted.
// The CAROL event log (CheckpointSink, ResumePlanCell, RecoverLog) stays
// the replayable per-strike artifact of beamsim -o and Runner{Logs}.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"

	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/metrics"
)

// cellCheckpoint is one checkpoint line. The identity fields are what a
// resume compares against the cell it is asked to run; the rest is the
// accumulator's state after the strikes [0, Next).
type cellCheckpoint struct {
	Device     string    `json:"device"`
	Kernel     string    `json:"kernel"`
	Input      string    `json:"input"`
	Seed       uint64    `json:"seed"`
	Thresholds []float64 `json:"thresholds"`

	// Next is the first strike index the checkpoint does not cover.
	Next int `json:"next"`
	// Tally is the outcome census, and ByResource its split by resource
	// name, each as {masked, sdc, crash, hang}.
	Tally      census            `json:"tally"`
	ByResource map[string]census `json:"by_resource"`
	// SDC[k] counts the SDCs surviving Thresholds[k].
	SDC []int `json:"sdc"`
	// Locality[k] holds the pattern counts under Thresholds[k], in
	// metrics.Patterns order.
	Locality [][]int `json:"locality"`
	// Filtered[k] is {SDCs seen, SDCs cleared} under Thresholds[k].
	Filtered [][2]int `json:"filtered"`
}

// census is an injector.Tally in checkpoint form: {masked, sdc, crash,
// hang}.
type census [4]int

func censusOf(t injector.Tally) census { return census{t.Masked, t.SDC, t.Crash, t.Hang} }

func (c census) tally() injector.Tally {
	return injector.Tally{Masked: c[0], SDC: c[1], Crash: c[2], Hang: c[3]}
}

// snapshot renders the accumulator's state after strikes [0, next) as a
// checkpoint carrying the given identity, for encoding at once: it
// shares the SDC counts with the accumulator.
func (a *SummaryAccumulator) snapshot(id cellCheckpoint, next int) cellCheckpoint {
	r := a.red
	c := id
	c.Next = next
	c.Tally = censusOf(r.tally.Tally)
	c.ByResource = make(map[string]census, len(r.tally.ByResource))
	for res, t := range r.tally.ByResource {
		c.ByResource[res.String()] = censusOf(t)
	}
	c.SDC = r.counts.Counts
	for k := range a.ts {
		row := make([]int, len(metrics.Patterns))
		for j, p := range metrics.Patterns {
			row[j] = r.locs[k].Counts[p]
		}
		c.Locality = append(c.Locality, row)
		c.Filtered = append(c.Filtered, [2]int{r.fracs[k].SDCs, r.fracs[k].Cleared})
	}
	return c
}

// resumable reports whether c is a consistent checkpoint of the cell
// identified by id, within a budget of strikes: same identity and
// thresholds bit for bit, a position inside the budget, and counts that
// agree with each other. Anything else — another cell or seed, a torn or
// hand-edited line — is not resumed from.
func (c *cellCheckpoint) resumable(id cellCheckpoint, strikes int) bool {
	if c.Device != id.Device || c.Kernel != id.Kernel || c.Input != id.Input || c.Seed != id.Seed ||
		len(c.Thresholds) != len(id.Thresholds) {
		return false
	}
	for k, t := range id.Thresholds {
		if math.Float64bits(c.Thresholds[k]) != math.Float64bits(t) {
			return false
		}
	}
	if c.Next <= 0 || c.Next > strikes || c.Tally.tally().Count() != c.Next {
		return false
	}
	var sum census
	for name, t := range c.ByResource {
		if _, ok := fault.ResourceFromString(name); !ok {
			return false
		}
		for j, v := range t {
			if v < 0 {
				return false
			}
			sum[j] += v
		}
	}
	if sum != c.Tally {
		return false
	}
	sdc := c.Tally[1]
	n := len(id.Thresholds)
	if len(c.SDC) != n || len(c.Locality) != n || len(c.Filtered) != n {
		return false
	}
	for k := 0; k < n; k++ {
		if c.SDC[k] < 0 || c.SDC[k] > sdc || len(c.Locality[k]) != len(metrics.Patterns) {
			return false
		}
		for _, v := range c.Locality[k] {
			if v < 0 {
				return false
			}
		}
		if f := c.Filtered[k]; f[0] != sdc || f[1] < 0 || f[1] > f[0] {
			return false
		}
	}
	return true
}

// restore sets the accumulator to a checkpoint's state. c must have
// passed resumable against the accumulator's thresholds.
func (a *SummaryAccumulator) restore(c *cellCheckpoint) {
	r := a.red
	r.tally.Tally = c.Tally.tally()
	for name, t := range c.ByResource {
		res, _ := fault.ResourceFromString(name)
		r.tally.ByResource[res] = t.tally()
	}
	copy(r.counts.Counts, c.SDC)
	for k := range a.ts {
		for j, p := range metrics.Patterns {
			if v := c.Locality[k][j]; v > 0 {
				r.locs[k].Counts[p] = v
			}
		}
		r.fracs[k].SDCs, r.fracs[k].Cleared = c.Filtered[k][0], c.Filtered[k][1]
	}
}

// LastCheckpoint returns the checkpoint a checkpoint log resumes from:
// its last newline-terminated line, newline included, or nil when the
// log holds no complete line. A torn final write leaves an unterminated
// fragment, which is skipped. Whether the line describes a given cell is
// for RunCheckpointed to judge.
func LastCheckpoint(log []byte) []byte {
	end := bytes.LastIndexByte(log, '\n')
	if end < 0 {
		return nil
	}
	return log[bytes.LastIndexByte(log[:end], '\n')+1 : end+1]
}

// stateLog is the checkpoint writer: at every chunk flush it writes one
// line holding the accumulator's state, in a single Write call, so a
// writer that keeps only the latest line (a fleet worker's heartbeat
// buffer) sees whole lines. It must follow the accumulator in the sink
// order. Write errors are sticky and reported when the run ends.
type stateLog struct {
	w   io.Writer
	acc *SummaryAccumulator
	id  cellCheckpoint
	err error
}

// Consume implements Sink; the state is read at the flush.
func (l *stateLog) Consume(int, injector.Outcome) {}

// FlushChunk implements ChunkFlusher.
func (l *stateLog) FlushChunk(next int) {
	if l.err != nil {
		return
	}
	line, err := json.Marshal(l.acc.snapshot(l.id, next))
	if err != nil {
		l.err = err
		return
	}
	_, l.err = l.w.Write(append(line, '\n'))
}

// RunCheckpointed runs a cell under a reducer-state checkpoint, the form
// the daemon and the fleet checkpoint in. prev is what a previous
// execution of the cell wrote — possibly nothing. Its last complete line
// is the checkpoint: when it describes this cell, seed and thresholds,
// the accumulator restarts from its counts, an adaptive stop rule is
// re-evaluated at its position (its SDC count is the tally's), and only
// the strikes after it run. Anything else in prev, including an event
// log of the CAROL format, means a fresh run. One line is appended to w
// at every chunk flush, before the extra sinks see the flush, so a
// flushed strike count an extra sink observes is always covered by w.
//
// The summary is bit-identical to RunPlanCell's, whatever prefix was
// resumed; resumed reports whether one was. Errors, cancellation and
// early stopping behave as in RunPlanCell; a write error on w fails the
// cell once it has run.
func RunCheckpointed(ctx context.Context, prev []byte, w io.Writer, cell Cell, cfg Config, thresholds []float64, extra ...Sink) (info StreamInfo, sum *Summary, resumed bool, err error) {
	r, cfg := newCellRun(cfg, thresholds)
	if r.info, err = CellInfo(cell.Dev, cell.Kern, cfg); err != nil {
		return r.info, nil, false, err
	}
	log := &stateLog{w: w, acc: r.acc, id: cellCheckpoint{
		Device:     r.info.Device,
		Kernel:     r.info.Kernel,
		Input:      r.info.Input,
		Seed:       cfg.Seed,
		Thresholds: r.acc.ts,
	}}
	from := 0
	var c cellCheckpoint
	if line := LastCheckpoint(prev); json.Unmarshal(line, &c) == nil && c.resumable(log.id, cfg.Strikes) {
		r.acc.restore(&c)
		from, resumed = c.Next, true
		if r.es != nil {
			r.es.sdc = c.Tally[1]
			r.es.evaluate(from)
		}
	}
	err = r.advance(ctx, cell, cfg, from, 1, append([]Sink{log}, extra...))
	if err == nil {
		err = log.err
	}
	info, sum, err = r.result(err)
	return info, sum, resumed, err
}

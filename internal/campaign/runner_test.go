package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"radcrit/internal/arch"
	"radcrit/internal/grid"
	"radcrit/internal/injector"
	"radcrit/internal/kernels"
	"radcrit/internal/metrics"
	"radcrit/internal/xrand"
)

// goldenPlanJSON is the goldenTable's experiment matrix written as a
// declarative JSON plan: the same seed-42/300-strike cells, one plan.
const goldenPlanJSON = `{
  "name": "golden",
  "seed": 42,
  "strikes": 300,
  "thresholds": [0, 1],
  "cells": [
    {"device": "k40", "kernel": "dgemm:128"},
    {"device": "k40", "kernel": "lavamd:4"},
    {"device": "k40", "kernel": "hotspot:64x80"},
    {"device": "k40", "kernel": "clamr:48x60"},
    {"device": "phi", "kernel": "dgemm:128"},
    {"device": "phi", "kernel": "lavamd:3"},
    {"device": "phi", "kernel": "hotspot:64x80"},
    {"device": "phi", "kernel": "clamr:48x60"}
  ]
}`

// TestPlanReproducesGoldenTable is the plan API's regression anchor: a
// campaign defined entirely as JSON must reproduce the frozen
// seed-42/300-strike table bit for bit through every Runner.
func TestPlanReproducesGoldenTable(t *testing.T) {
	plan, err := LoadPlan(strings.NewReader(goldenPlanJSON))
	if err != nil {
		t.Fatalf("golden plan failed to load: %v", err)
	}
	runners := map[string]*Runner{
		"runner": {},
	}
	for rname, r := range runners {
		res, err := r.Run(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: %v", rname, err)
		}
		if len(res.Cells) != len(goldenTable) {
			t.Fatalf("%s: %d outcomes for %d golden cells", rname, len(res.Cells), len(goldenTable))
		}
		for i, want := range goldenTable {
			out := res.Cells[i]
			label := fmt.Sprintf("%s: %s/%s/%s", rname, want.device, want.kernel, want.input)
			if out.Err != nil {
				t.Fatalf("%s: cell failed: %v", label, out.Err)
			}
			if out.Info.Device != want.device || out.Info.Kernel != want.kernel || out.Info.Input != want.input {
				t.Fatalf("%s: cell resolved to %s/%s/%s",
					label, out.Info.Device, out.Info.Kernel, out.Info.Input)
			}
			s := out.Summary
			wantTally := injector.Tally{Masked: want.masked, SDC: want.sdc, Crash: want.crash, Hang: want.hang}
			if s.Tally != wantTally {
				t.Errorf("%s: tally %+v, table pins %+v", label, s.Tally, wantTally)
			}
			requireGoldenFloat(t, label+": SDCFIT[0]", s.SDCFIT[0], want.sdcFIT0)
			requireGoldenFloat(t, label+": SDCFIT[1]", s.SDCFIT[1], want.sdcFIT1)
			for k, hex := range want.locality {
				requireGoldenFloat(t, label+": locality["+s.Locality[0].Labels[k]+"]",
					s.Locality[0].Values[k], hex)
			}
		}
	}
}

// chkCanceller is a checkpoint-log writer that cancels the run once the
// log holds the #CHK record for a given strike index: a chunk-boundary
// cancellation trigger that needs nothing but the Runner's Logs hook.
type chkCanceller struct {
	bytes.Buffer
	mark   []byte
	cancel context.CancelFunc
}

func cancelAtCHK(next int, cancel context.CancelFunc) *chkCanceller {
	return &chkCanceller{mark: fmt.Appendf(nil, "#CHK next:%d ", next), cancel: cancel}
}

func (w *chkCanceller) Write(p []byte) (int, error) {
	n, err := w.Buffer.Write(p)
	if bytes.Contains(w.Bytes(), w.mark) {
		w.cancel()
	}
	return n, err
}

func (w *chkCanceller) Close() error { return nil }

// TestStreamRunnerCancellation pins graceful cancellation: cancelling
// mid-cell surfaces ctx.Err(), keeps the chunk-aligned partial reducer
// state, marks unreached cells, and leaks no goroutines.
func TestStreamRunnerCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := NewPlan(7, 1000).
		WithCell("k40", "dgemm:128").
		WithCell("phi", "dgemm:128").
		WithWorkers(4).
		WithStreamChunk(100)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = 200
	r := &Runner{Logs: func(i int, _ CellSpec) (io.WriteCloser, error) {
		if i == 0 {
			return cancelAtCHK(cancelAt, cancel), nil
		}
		return bufCloser{&bytes.Buffer{}}, nil
	}}
	res, err := r.Run(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if res == nil || len(res.Cells) != 2 {
		t.Fatalf("cancelled run returned no partial result")
	}
	out := res.Cells[0]
	if !errors.Is(out.Err, context.Canceled) {
		t.Errorf("in-flight cell Err = %v", out.Err)
	}
	if out.Summary == nil {
		t.Fatalf("in-flight cell lost its partial reducer state")
	}
	tot := out.Summary.Tally.Masked + out.Summary.Tally.SDC + out.Summary.Tally.Crash + out.Summary.Tally.Hang
	if tot != cancelAt {
		t.Errorf("partial state covers %d strikes, want the chunk-aligned %d", tot, cancelAt)
	}
	if !errors.Is(res.Cells[1].Err, context.Canceled) {
		t.Errorf("unreached cell Err = %v", res.Cells[1].Err)
	}

	// The partial prefix must be bit-identical to an uncancelled run of
	// exactly cancelAt strikes (determinism is chunk-prefix-closed), and
	// the partial FITs must be true rates over that prefix exposure, not
	// diluted by the cancelled tail.
	full := NewTallyReducer()
	counts := NewSDCCountReducer(out.Summary.Thresholds...)
	refInfo, err := RunStreamingFromCtx(context.Background(), mustDev(t, "k40"), mustKern(t, "dgemm:128"),
		Config{Seed: 7, Strikes: cancelAt, BaseExecSeconds: 1.0, Facility: plan.Config().Facility, StreamChunk: 100},
		0, full, counts)
	if err != nil {
		t.Fatalf("reference prefix: %v", err)
	}
	if full.Tally != out.Summary.Tally {
		t.Errorf("partial tally %+v differs from reference prefix %+v", out.Summary.Tally, full.Tally)
	}
	for k := range out.Summary.Thresholds {
		if want := counts.FIT(k, refInfo.Exposure); out.Summary.SDCFIT[k] != want {
			t.Errorf("partial SDCFIT[%d] = %v, want the prefix rate %v", k, out.Summary.SDCFIT[k], want)
		}
	}

	waitForGoroutines(t, before)
}

// TestBatchRunnerCancellationBetweenCells pins cancellation at a cell
// boundary: a cell that completed before the cancel keeps its full
// outcome, and the cell the runner never reached is marked with ctx.Err()
// and carries no summary.
func TestBatchRunnerCancellationBetweenCells(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := NewPlan(9, 120).
		WithCell("k40", "dgemm:128").
		WithCell("phi", "dgemm:128")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &Runner{Logs: func(i int, _ CellSpec) (io.WriteCloser, error) {
		if i == 0 {
			return cancelAtCHK(120, cancel), nil
		}
		return bufCloser{&bytes.Buffer{}}, nil
	}}
	res, err := r.Run(ctx, plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if res.Cells[0].Err != nil || res.Cells[0].Summary == nil {
		t.Errorf("completed cell lost its outcome: %+v", res.Cells[0])
	}
	if !errors.Is(res.Cells[1].Err, context.Canceled) || res.Cells[1].Summary != nil {
		t.Errorf("unreached cell = %+v", res.Cells[1])
	}
	waitForGoroutines(t, before)
}

// TestMatrixRunnerPreCancelled pins that a plan spanning several devices
// is not started under an already-cancelled context.
func TestMatrixRunnerPreCancelled(t *testing.T) {
	plan := NewPlan(9, 50).WithKernelOnDevices("dgemm:128", "k40", "phi")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Runner{}).Run(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v", err)
	}
}

// TestBuildCtxHonoursCancellation pins that the construction phase — the
// expensive golden simulations of iterative kernels — is abandoned under
// a cancelled context instead of building the whole plan first.
func TestBuildCtxHonoursCancellation(t *testing.T) {
	plan := NewPlan(9, 50).WithCell("k40", "hotspot:64x80")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.BuildCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled BuildCtx returned %v", err)
	}
	for name, r := range map[string]*Runner{
		"runner": {},
	} {
		res, err := r.Run(ctx, plan)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled Run returned %v", name, err)
		}
		// Even build-phase cancellation honours the partial-result
		// contract: a shell with every cell marked, never a nil result.
		if res == nil || len(res.Cells) != 1 || !errors.Is(res.Cells[0].Err, context.Canceled) {
			t.Errorf("%s: build-phase cancellation returned %+v", name, res)
		}
	}
}

// stubKernel is a kernel whose profile never validates: the cell-failure
// path of every engine.
type stubKernel struct{}

func (stubKernel) Name() string         { return "Stub" }
func (stubKernel) Domain() string       { return "test" }
func (stubKernel) InputLabel() string   { return "0x0" }
func (stubKernel) Class() kernels.Class { return kernels.Class{} }
func (stubKernel) Profile(arch.Device) arch.Profile {
	return arch.Profile{Kernel: "stub", OutputDims: grid.Dims{}}
}
func (stubKernel) Golden(arch.Device) kernels.GoldenState { return nil }
func (stubKernel) RunInjected(arch.Device, arch.Injection, *xrand.RNG) *metrics.Report {
	return nil
}
func (stubKernel) RunInjectedOn(kernels.GoldenState, arch.Injection, *xrand.RNG) *metrics.Report {
	return nil
}
func (stubKernel) RunInjectedPooled(kernels.GoldenState, arch.Injection, *xrand.RNG, *metrics.ReportPool) *metrics.Report {
	return nil
}

// TestCellErrorCachedNotRepanicked pins the failure contract of the
// retained path: a failed cell returns a typed *CellError carrying the
// cell's identity through RunCtx, a retry observes the same typed failure
// instead of a panic, and only Run panics, with that error's message.
func TestCellErrorCachedNotRepanicked(t *testing.T) {
	dev := mustDev(t, "k40")
	cfg := DefaultConfig(1, 10)
	_, err1 := RunCtx(context.Background(), dev, stubKernel{}, cfg)
	var ce *CellError
	if !errors.As(err1, &ce) {
		t.Fatalf("want *CellError, got %T: %v", err1, err1)
	}
	if ce.Device != "K40" || ce.Kernel != "Stub" || ce.Input != "0x0" {
		t.Errorf("CellError lacks cell identity: %+v", ce)
	}
	_, err2 := RunCtx(context.Background(), dev, stubKernel{}, cfg)
	if !errors.As(err2, &ce) || err2.Error() != err1.Error() {
		t.Errorf("retry failed differently: %v vs %v", err2, err1)
	}
	defer func() {
		if r := recover(); r != err1.Error() {
			t.Errorf("Run panicked with %v, want %q", r, err1.Error())
		}
	}()
	Run(dev, stubKernel{}, cfg)
}

// TestCancelledCellNotCached pins that a context cancellation leaves no
// state behind: the next caller with a live context gets the real result.
func TestCancelledCellNotCached(t *testing.T) {
	dev := mustDev(t, "phi")
	kern := mustKern(t, "lavamd:3")
	cfg := DefaultConfig(1234, 200)
	cfg.StreamChunk = 16
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, dev, kern, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunCtx returned %v", err)
	}
	res, err := RunCtx(context.Background(), dev, kern, cfg)
	if err != nil || res == nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if got := res.Tally.Masked + res.Tally.SDC + res.Tally.Crash + res.Tally.Hang; got != 200 {
		t.Errorf("retry ran %d strikes, want 200", got)
	}
}

// panicKernel panics during session setup: the worst-case third-party
// kernel bug the engine must survive.
type panicKernel struct{ stubKernel }

func (panicKernel) Name() string { return "PanicStub" }
func (panicKernel) Profile(arch.Device) arch.Profile {
	panic("third-party kernel bug")
}

// TestPanickingCellDoesNotWedgeMemo pins that a panic escaping a cell
// computation propagates to the caller and leaves nothing behind: a later
// call of the same cell observes the same panic instead of blocking.
func TestPanickingCellDoesNotWedgeMemo(t *testing.T) {
	dev := mustDev(t, "k40")
	cfg := DefaultConfig(1, 10)
	mustPanic := func(call int) {
		defer func() {
			if recover() == nil {
				t.Fatalf("call %d: kernel panic was swallowed", call)
			}
		}()
		_, _ = RunCtx(context.Background(), dev, panicKernel{}, cfg)
	}
	mustPanic(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mustPanic(2)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second call deadlocked after the first call's panic")
	}
}

// TestSingleFlightFollowerCancellable pins that concurrent callers of one
// cell are independent: a caller with a cancelled context returns
// ctx.Err() promptly while another caller's computation of the same cell
// is in flight, and that computation still completes with the result a
// fresh call reproduces bit for bit.
func TestSingleFlightFollowerCancellable(t *testing.T) {
	dev := mustDev(t, "k40")
	kern := mustKern(t, "dgemm:128")
	cfg := DefaultConfig(777, 3000) // long enough that the first caller is usually mid-flight
	cfg.StreamChunk = 64

	leaderDone := make(chan *Result, 1)
	go func() {
		res, err := RunCtx(context.Background(), dev, kern, cfg)
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leaderDone <- res
	}()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := RunCtx(ctx, dev, kern, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower returned %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("cancelled follower blocked %v behind the leader", waited)
	}

	res := <-leaderDone
	if res == nil {
		t.Fatal("leader produced no result")
	}
	again, err := RunCtx(context.Background(), dev, kern, cfg)
	if err != nil {
		t.Fatalf("fresh call: %v", err)
	}
	requireIdentical(t, "leader vs fresh call", res, again)
}

func mustDev(t *testing.T, name string) arch.Device {
	t.Helper()
	for _, d := range Devices() {
		if (name == "k40" && d.ShortName() == "K40") || (name == "phi" && d.ShortName() == "XeonPhi") {
			return d
		}
	}
	t.Fatalf("no device %q", name)
	return nil
}

func mustKern(t *testing.T, spec string) kernels.Kernel {
	t.Helper()
	cells, err := NewPlan(1, 1).WithCell("k40", spec).Build()
	if err != nil {
		t.Fatalf("kernel %q: %v", spec, err)
	}
	return cells[0].Kern
}

// waitForGoroutines asserts the goroutine count settles back to (near)
// its pre-test level: cancellation must not leak workers.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d before, %d after cancellation", before, now)
}

package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"radcrit/internal/k40"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/logdata"
)

// TestCellKeyCanonicalisation pins the content-address contract: every
// field that can change a cell's summary changes the key, and the two
// wall-time-only knobs (Workers, StreamChunk) do not.
func TestCellKeyCanonicalisation(t *testing.T) {
	base := NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2)
	baseKey := base.CellKey(0)
	if len(baseKey) != 64 || strings.ToLower(baseKey) != baseKey {
		t.Fatalf("CellKey %q is not lowercase sha256 hex", baseKey)
	}

	mutations := map[string]*Plan{
		"device":     NewPlan(42, 300).WithCell("phi", "dgemm:128").WithThresholds(0, 2),
		"kernel":     NewPlan(42, 300).WithCell("k40", "dgemm:256").WithThresholds(0, 2),
		"seed":       NewPlan(43, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2),
		"strikes":    NewPlan(42, 301).WithCell("k40", "dgemm:128").WithThresholds(0, 2),
		"thresholds": NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 3),
		"facility":   NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2).WithFacility("ISIS"),
		"base_exec":  NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2).WithBaseExecSeconds(2),
	}
	seen := map[string]string{baseKey: "base"}
	for what, p := range mutations {
		k := p.CellKey(0)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s (key %s)", what, prev, k)
		}
		seen[k] = what
	}

	same := NewPlan(42, 300).WithCell("k40", "dgemm:128").WithThresholds(0, 2).
		WithWorkers(8).WithStreamChunk(17)
	if got := same.CellKey(0); got != baseKey {
		t.Errorf("Workers/StreamChunk changed the key: %s vs %s — they can never change results", got, baseKey)
	}

	// Field separators cannot be forged from inside a name: a device
	// string embedding the canonical encoding of the next field must not
	// collide with the honest spelling.
	a := CellKey(CellSpec{Device: "x\nkernel=1:y", Kernel: "z"}, base.Config(), nil)
	b := CellKey(CellSpec{Device: "x", Kernel: "y"}, base.Config(), nil)
	if a == b {
		t.Errorf("crafted device name collides across field boundaries")
	}
}

// summaryBits flattens every float in a Summary to its bit pattern so two
// summaries can be compared for exact equality, NaN-safely.
func summaryBits(t *testing.T, s *Summary) []uint64 {
	t.Helper()
	if s == nil {
		t.Fatalf("nil summary")
	}
	bits := []uint64{
		uint64(s.Tally.Masked), uint64(s.Tally.SDC),
		uint64(s.Tally.Crash), uint64(s.Tally.Hang),
		math.Float64bits(s.DUEFIT),
	}
	for _, v := range s.SDCFIT {
		bits = append(bits, math.Float64bits(v))
	}
	for _, v := range s.FilteredFraction {
		bits = append(bits, math.Float64bits(v))
	}
	for _, bd := range s.Locality {
		for _, v := range bd.Values {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func requireSameSummary(t *testing.T, label string, got, want *Summary) {
	t.Helper()
	g, w := summaryBits(t, got), summaryBits(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: summary shape differs: %d vs %d values", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: summary value %d differs: %#x vs %#x", label, i, g[i], w[i])
		}
	}
}

// TestResumePlanCellBitIdentical cuts a checkpointed cell log at an
// arbitrary byte and asserts that ResumePlanCell reconstructs both the
// log and the summary bit-identically to the uninterrupted run — the
// foundation of the daemon's resume-on-restart contract.
func TestResumePlanCellBitIdentical(t *testing.T) {
	cell := Cell{Dev: k40.New(), Kern: dgemm.New(128)}
	cfg := DefaultConfig(42, 300)
	cfg.StreamChunk = 64
	ts := []float64{0, 2}

	var full bytes.Buffer
	info, err := CellInfo(cell.Dev, cell.Kern, cfg)
	if err != nil {
		t.Fatalf("CellInfo: %v", err)
	}
	chk, err := NewCheckpointSink(&full, info, cfg.Seed)
	if err != nil {
		t.Fatalf("NewCheckpointSink: %v", err)
	}
	_, want, err := RunPlanCell(context.Background(), cell, cfg, ts, chk)
	if err != nil {
		t.Fatalf("RunPlanCell: %v", err)
	}
	if err := chk.Close(); err != nil {
		t.Fatalf("checkpoint close: %v", err)
	}

	for _, cut := range []int{0, 1, full.Len() / 3, full.Len() / 2, full.Len() - 1, full.Len()} {
		truncated := full.Bytes()[:cut]
		var recovered bytes.Buffer
		_, got, err := ResumePlanCell(context.Background(),
			bytes.NewReader(truncated), &recovered, cell, cfg, ts)
		if err != nil {
			t.Fatalf("cut %d: ResumePlanCell: %v", cut, err)
		}
		requireSameSummary(t, "cut "+strconv.Itoa(cut), got, want)
		// The recovered log is event-for-event identical to the
		// uninterrupted one (checkpoint-record placement may differ: the
		// replayed prefix is written in one piece). Equality is checked on
		// the normalised parse→write round trip — hex-float output is
		// bit-exact and NaN-safe, where DeepEqual on NaN reads is not.
		if got, want := normalisedLog(t, cut, recovered.String()), normalisedLog(t, cut, full.String()); got != want {
			t.Errorf("cut %d: recovered log events differ from the uninterrupted log", cut)
		}
	}

	// A log for a different seed must be rejected, not resumed
	// into a silently wrong summary.
	otherCfg := cfg
	otherCfg.Seed = 7
	var w bytes.Buffer
	if _, _, err := ResumePlanCell(context.Background(),
		bytes.NewReader(full.Bytes()), &w, cell, otherCfg, ts); err == nil {
		t.Errorf("resume under a different seed did not error")
	}
}

// normalisedLog parses a checkpoint log and re-serialises it, yielding a
// canonical event-stream form independent of checkpoint placement.
func normalisedLog(t *testing.T, cut int, raw string) string {
	t.Helper()
	l, err := logdata.Parse(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("cut %d: log unparseable: %v", cut, err)
	}
	var b bytes.Buffer
	if err := logdata.Write(&b, l); err != nil {
		t.Fatalf("cut %d: log unwritable: %v", cut, err)
	}
	return b.String()
}

// TestResumeSurvivesImmediateInterruption pins the resume path's
// durability invariant: even when the resumed run is interrupted before
// a single tail chunk completes, the rewritten log still carries a
// checkpoint covering the salvaged prefix — progress can never regress
// across repeated short-lived interruptions.
func TestResumeSurvivesImmediateInterruption(t *testing.T) {
	cell := Cell{Dev: k40.New(), Kern: dgemm.New(128)}
	cfg := DefaultConfig(42, 160)
	cfg.StreamChunk = 32
	ts := []float64{0, 2}

	var full bytes.Buffer
	info, err := CellInfo(cell.Dev, cell.Kern, cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := NewCheckpointSink(&full, info, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunPlanCell(context.Background(), cell, cfg, ts, chk); err != nil {
		t.Fatal(err)
	}
	if err := chk.Close(); err != nil {
		t.Fatal(err)
	}

	truncated := full.Bytes()[:2*full.Len()/3]
	before, err := logdata.ParseResume(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if before.Next == 0 {
		t.Fatalf("test cut salvaged nothing; pick a later cut")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the resume is interrupted before any tail strike runs
	var rewritten bytes.Buffer
	if _, _, err := ResumePlanCell(ctx, bytes.NewReader(truncated), &rewritten, cell, cfg, ts); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted resume returned %v, want context.Canceled", err)
	}
	after, err := logdata.ParseResume(bytes.NewReader(rewritten.Bytes()))
	if err != nil {
		t.Fatalf("rewritten log unparseable: %v", err)
	}
	if after.Next < before.Next {
		t.Errorf("rewritten log resumes at %d, older log at %d: salvaged progress was lost", after.Next, before.Next)
	}
	if after.Masked != before.Masked {
		t.Errorf("rewritten log masked count %d, want %d", after.Masked, before.Masked)
	}
}

// requireSameInfo compares two StreamInfos field by field, the exposure's
// floats by bit pattern.
func requireSameInfo(t *testing.T, label string, got, want StreamInfo) {
	t.Helper()
	if got.Device != want.Device || got.Kernel != want.Kernel || got.Input != want.Input || got.Strikes != want.Strikes {
		t.Errorf("%s: info identity differs: %s/%s/%s %d strikes vs %s/%s/%s %d strikes", label,
			got.Device, got.Kernel, got.Input, got.Strikes, want.Device, want.Kernel, want.Input, want.Strikes)
	}
	if g, w := fmt.Sprintf("%#v", got.Profile), fmt.Sprintf("%#v", want.Profile); g != w {
		t.Errorf("%s: profile differs:\n%s\nvs\n%s", label, g, w)
	}
	ge, we := got.Exposure, want.Exposure
	if ge.Facility != we.Facility || ge.Board != we.Board {
		t.Errorf("%s: exposure facility/board differ", label)
	}
	for _, f := range [][2]float64{
		{ge.BeamHours, we.BeamHours}, {ge.ExecSeconds, we.ExecSeconds}, {ge.SensitiveArea, we.SensitiveArea},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Errorf("%s: exposure value differs: %v vs %v", label, f[0], f[1])
		}
	}
}

// TestFreshRunIsEmptyResume pins that a fresh logged cell is a resume of
// an empty log: for every adaptiveGoldenPlan cell, with and without its
// early-stopping spec, ResumePlanCell over an empty reader writes the
// same log bytes, and returns the same info and summary bits, as
// RunPlanCell feeding a checkpoint sink.
func TestFreshRunIsEmptyResume(t *testing.T) {
	plan := adaptiveGoldenPlan()
	cells, err := plan.Build()
	if err != nil {
		t.Fatal(err)
	}
	ts := plan.EffectiveThresholds()
	fixed := plan.Config()
	fixed.Adaptive = nil
	// The fixed-budget logs checkpoint at the same spacing as the
	// adaptive ones, so they carry several #CHK records too.
	fixed.StreamChunk = plan.Adaptive.CheckEvery
	for _, mode := range []struct {
		name string
		cfg  Config
	}{{"fixed", fixed}, {"adaptive", plan.Config()}} {
		for i, cell := range cells {
			label := fmt.Sprintf("%s cell %d", mode.name, i)
			info, err := CellInfo(cell.Dev, cell.Kern, mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var fresh bytes.Buffer
			chk, err := NewCheckpointSink(&fresh, info, mode.cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			fInfo, fSum, err := RunPlanCell(context.Background(), cell, mode.cfg, ts, chk)
			if err != nil {
				t.Fatalf("%s: RunPlanCell: %v", label, err)
			}
			if err := chk.Close(); err != nil {
				t.Fatal(err)
			}

			var resumed bytes.Buffer
			rInfo, rSum, err := ResumePlanCell(context.Background(), bytes.NewReader(nil), &resumed, cell, mode.cfg, ts)
			if err != nil {
				t.Fatalf("%s: ResumePlanCell: %v", label, err)
			}
			if !bytes.Equal(resumed.Bytes(), fresh.Bytes()) {
				t.Errorf("%s: empty-log resume wrote a different log than the fresh run (%d vs %d bytes)",
					label, resumed.Len(), fresh.Len())
			}
			requireSameInfo(t, label, rInfo, fInfo)
			requireSameSummary(t, label, rSum, fSum)
		}
	}
}

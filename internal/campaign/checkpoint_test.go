package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"radcrit/internal/injector"
)

// firstIndex is a probe sink recording the first strike index a run
// consumes (-1: none), which tells where a resume restarted.
type firstIndex struct{ i int }

func (f *firstIndex) Consume(i int, _ injector.Outcome) {
	if f.i < 0 {
		f.i = i
	}
}

// checkpointCase is one cell the checkpoint suite resumes.
type checkpointCase struct {
	name string
	spec CellSpec
	cfg  Config
}

func checkpointCases() []checkpointCase {
	fixed := DefaultConfig(42, 300)
	fixed.StreamChunk = 32
	fixed.Workers = 1
	adaptive := DefaultConfig(42, 300)
	adaptive.Workers = 1
	// Stops at 250 of 300 on about 90 SDCs, past its strike floor: a
	// resume that lost the SDC count would stop elsewhere.
	adaptive.Adaptive = &AdaptiveSpec{TargetHalfWidth: 0.1, MinStrikes: 100, CheckEvery: 50}
	return []checkpointCase{
		{"fixed k40/dgemm:128", CellSpec{Device: "k40", Kernel: "dgemm:128"}, fixed},
		{"adaptive phi/lavamd:4", CellSpec{Device: "phi", Kernel: "lavamd:4"}, adaptive},
	}
}

// wireJSON renders a value the way the service stores and serves it, so
// equal renderings mean byte-identical results on the wire.
func wireJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// runCheckpointed runs c from prev, returning the run's wire-rendered
// info and summary, whether it resumed, the first strike index it ran
// and the checkpoint log it wrote.
func runCheckpointed(t *testing.T, c checkpointCase, cell Cell, prev []byte, ts []float64) (string, bool, int, []byte) {
	t.Helper()
	var log bytes.Buffer
	probe := &firstIndex{i: -1}
	info, sum, resumed, err := RunCheckpointed(context.Background(), prev, &log, cell, c.cfg, ts, probe)
	if err != nil {
		t.Fatalf("%s: RunCheckpointed: %v", c.name, err)
	}
	return wireJSON(t, info) + wireJSON(t, sum), resumed, probe.i, log.Bytes()
}

// checkpointLines splits a checkpoint log into its lines, newlines kept.
func checkpointLines(log []byte) [][]byte {
	lines := bytes.SplitAfter(log, []byte("\n"))
	return lines[:len(lines)-1] // the empty remainder after the last newline
}

// lineNext decodes a checkpoint line's position.
func lineNext(t *testing.T, line []byte) int {
	t.Helper()
	var c cellCheckpoint
	if err := json.Unmarshal(line, &c); err != nil {
		t.Fatalf("checkpoint line %q: %v", line, err)
	}
	return c.Next
}

// TestCheckpointResumeAtEveryBoundary takes the checkpoint after every
// chunk of a multi-chunk fixed cell and of an adaptive cell that stops
// early, and resumes from each one: the resumed run restarts exactly at
// the checkpoint's position, its info and summary are byte-identical to
// RunPlanCell's, and its last checkpoint equals the uninterrupted run's
// (which pins the restored per-resource split the summary does not
// show). A torn last line falls back to the line before it.
func TestCheckpointResumeAtEveryBoundary(t *testing.T) {
	ts := []float64{0, 2}
	for _, c := range checkpointCases() {
		cell, err := BuildCell(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		info, sum, err := RunPlanCell(context.Background(), cell, c.cfg, ts)
		if err != nil {
			t.Fatalf("%s: RunPlanCell: %v", c.name, err)
		}
		want := wireJSON(t, info) + wireJSON(t, sum)
		end := info.Strikes

		got, resumed, first, full := runCheckpointed(t, c, cell, nil, ts)
		if got != want || resumed || first != 0 {
			t.Fatalf("%s: fresh run: resumed=%v first=%d, same result %v", c.name, resumed, first, got == want)
		}
		lines := checkpointLines(full)
		if len(lines) < 2 {
			t.Fatalf("%s: %d checkpoint lines, want several", c.name, len(lines))
		}
		for _, l := range lines {
			if len(l) > 1024 {
				t.Errorf("%s: checkpoint line of %d bytes", c.name, len(l))
			}
		}
		last := lines[len(lines)-1]
		if lineNext(t, last) != end {
			t.Fatalf("%s: last checkpoint at %d, cell ended at %d", c.name, lineNext(t, last), end)
		}

		for k, line := range lines {
			next := lineNext(t, line)
			label := fmt.Sprintf("%s: checkpoint %d (next %d)", c.name, k, next)
			prev := bytes.Join(lines[:k+1], nil)
			got, resumed, first, log := runCheckpointed(t, c, cell, prev, ts)
			if !resumed {
				t.Errorf("%s: not resumed", label)
			}
			wantFirst := next
			if next == end {
				wantFirst = -1 // nothing left to run
			}
			if first != wantFirst {
				t.Errorf("%s: resume ran from strike %d, want %d", label, first, wantFirst)
			}
			if got != want {
				t.Errorf("%s: resumed result differs from RunPlanCell:\n got %s\nwant %s", label, got, want)
			}
			if next < end && !bytes.Equal(LastCheckpoint(log), last) {
				t.Errorf("%s: resumed run's last checkpoint differs:\n got %s\nwant %s", label, LastCheckpoint(log), last)
			}

			// A torn line after this one is skipped: the resume falls back
			// to this checkpoint.
			if k+1 < len(lines) {
				torn := append(bytes.Clone(prev), lines[k+1][:len(lines[k+1])/2]...)
				got, resumed, first, _ := runCheckpointed(t, c, cell, torn, ts)
				if !resumed || first != next || got != want {
					t.Errorf("%s + torn line: resumed=%v from %d, same result %v", label, resumed, first, got == want)
				}
			}
		}
	}
}

// TestCheckpointRejectsOtherCells: a checkpoint written under another
// seed, other thresholds or another cell — or a log that is not a
// checkpoint at all — is not resumed from. The run starts at strike 0
// and still produces RunPlanCell's result.
func TestCheckpointRejectsOtherCells(t *testing.T) {
	c := checkpointCases()[0]
	ts := []float64{0, 2}
	cell, err := BuildCell(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	info, sum, err := RunPlanCell(context.Background(), cell, c.cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	want := wireJSON(t, info) + wireJSON(t, sum)

	// firstLine runs a variant of the cell and returns its first
	// checkpoint line.
	firstLine := func(spec CellSpec, seed uint64, ts []float64) []byte {
		t.Helper()
		cell, err := BuildCell(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.Seed = seed
		cfg.Strikes = 64
		var log bytes.Buffer
		if _, _, _, err := RunCheckpointed(context.Background(), nil, &log, cell, cfg, ts); err != nil {
			t.Fatal(err)
		}
		return checkpointLines(log.Bytes())[0]
	}
	own := firstLine(c.spec, c.cfg.Seed, ts)
	if _, resumed, first, _ := runCheckpointed(t, c, cell, own, ts); !resumed || first != 32 {
		t.Fatalf("own checkpoint: resumed=%v from %d, want a resume from 32", resumed, first)
	}

	if !strings.Contains(string(own), `"next":32`) {
		t.Fatalf("checkpoint line %s does not spell next as the inconsistency probe expects", own)
	}

	var events bytes.Buffer
	if _, _, err := ResumePlanCell(context.Background(), bytes.NewReader(nil), &events, cell, c.cfg, ts); err != nil {
		t.Fatal(err)
	}
	for name, prev := range map[string][]byte{
		"seed":         firstLine(c.spec, c.cfg.Seed+1, ts),
		"thresholds":   firstLine(c.spec, c.cfg.Seed, []float64{0, 3}),
		"threshold 1":  firstLine(c.spec, c.cfg.Seed, []float64{0}),
		"device":       firstLine(CellSpec{Device: "phi", Kernel: "dgemm:128"}, c.cfg.Seed, ts),
		"input":        firstLine(CellSpec{Device: "k40", Kernel: "dgemm:64"}, c.cfg.Seed, ts),
		"event log":    events.Bytes(),
		"garbage":      []byte("{\"next\":32}\n"),
		"inconsistent": bytes.Replace(own, []byte(`"next":32`), []byte(`"next":64`), 1),
	} {
		got, resumed, first, _ := runCheckpointed(t, c, cell, prev, ts)
		if resumed || first != 0 {
			t.Errorf("%s: resumed=%v from %d, want a fresh run", name, resumed, first)
		}
		if got != want {
			t.Errorf("%s: fresh run differs from RunPlanCell", name)
		}
	}
}

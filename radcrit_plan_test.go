package radcrit_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"radcrit"
)

// TestPlanFacadeEndToEnd drives the declarative surface exactly as a
// third-party consumer would: build a plan fluently, serialise it, load
// it back, run it, and check every summary against the retained
// per-cell path.
func TestPlanFacadeEndToEnd(t *testing.T) {
	plan := radcrit.NewPlan(42, 120).
		Named("facade-e2e").
		WithKernelOnDevices("dgemm:128", "k40", "phi").
		WithThresholds(0, 2).
		WithStreamChunk(40)

	var buf bytes.Buffer
	if err := radcrit.SavePlan(&buf, plan); err != nil {
		t.Fatalf("SavePlan: %v", err)
	}
	loaded, err := radcrit.LoadPlan(&buf)
	if err != nil {
		t.Fatalf("LoadPlan: %v", err)
	}

	sres, err := radcrit.NewRunner().Run(context.Background(), loaded)
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	built, err := loaded.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i, c := range built {
		b, s := radcrit.RunCampaign(c.Dev, c.Kern, loaded.Config()), sres.Cells[i].Summary
		if b.Tally != s.Tally {
			t.Errorf("cell %d: paths disagree on tally: %+v vs %+v", i, b.Tally, s.Tally)
		}
		for k, th := range s.Thresholds {
			if b.SDCFIT(th) != s.SDCFIT[k] {
				t.Errorf("cell %d threshold %d: paths disagree on SDC FIT", i, k)
			}
		}
		if b.Tally.SDC == 0 {
			t.Errorf("cell %d: campaign produced no SDCs — test is vacuous", i)
		}
	}
}

// TestFacadeRejectsInvalidPlans pins the no-panic contract of the public
// surface: malformed plans come back as errors from every entry point.
func TestFacadeRejectsInvalidPlans(t *testing.T) {
	if _, err := radcrit.LoadPlan(strings.NewReader(`{"seed":1,"strikes":10,"cells":[{"device":"k40","kernel":"dgemm:7"}]}`)); err == nil {
		t.Errorf("LoadPlan accepted a non-tile DGEMM size")
	}
	bad := radcrit.NewPlan(1, 0).WithCell("k40", "dgemm:128")
	if _, err := radcrit.NewRunner().Run(context.Background(), bad); err == nil {
		t.Errorf("runner accepted a zero-strike plan")
	}
	if _, err := radcrit.NewKernel("clamr:1x1"); err == nil {
		t.Errorf("NewKernel accepted an invalid CLAMR config")
	}
}

// TestFacadeCancellation pins ctx.Err() propagation through the facade.
func TestFacadeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := radcrit.NewPlan(1, 50).WithCell("k40", "dgemm:128")
	if _, err := radcrit.NewRunner().Run(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled facade run returned %v", err)
	}
}

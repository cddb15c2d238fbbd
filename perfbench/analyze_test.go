package main

import (
	"math"
	"testing"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/service"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 40}, {50, 70}, // worker A
		{30, 60}, {90, 120}, // worker B, overlapping A and running past the parent
	}
	// Covered: [10,70) and [90,100) = 70; self = 30.
	if got := selfTime(parent, children); got != 30 {
		t.Fatalf("self time = %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
	if got := unionLen([]interval{{0, 10}, {0, 10}, {5, 8}}, 0, 100); got != 10 {
		t.Fatalf("union of nested duplicates = %d, want 10", got)
	}
}

// syntheticRun builds one job with two plan workers whose run is
// [10ms, 110ms) on the tracer axis, plus the spans of its layers.
func syntheticRun(t *testing.T) (*tracer, []*jobRec, []span, []instance) {
	t.Helper()
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	ns := func(ms int) int64 { return int64(ms) * int64(time.Millisecond) }
	plan := campaign.NewPlan(7, 10).WithWorkers(2).WithCell("k40", "dgemm:256")
	created, started, finished := at(5), at(10), at(110)
	j := &jobRec{Plan: plan, Tenant: "default", Due: at(0), Sent: at(1), Responded: at(6),
		Snap: service.Snapshot{ID: "j-1", Tenant: "default", State: service.StateDone,
			Created: created, Started: &started, Finished: &finished},
		Result: &service.JobResult{Cells: []service.CellResult{{Cached: false}}}}
	insts := []instance{
		{Kernel: true, Spec: "dgemm:256", Created: ns(11)},
		{Spec: "k40", Created: ns(11)},
	}
	key := plan.CellKey(0)
	spans := []span{
		{Layer: "registry.dgemm", Start: ns(11), End: ns(12), Inst: 1},
		{Layer: "store.get", Start: ns(12), End: ns(13), Key: key},
		// Two workers: kernel batches of 4 (1 masked) and 6 (2 masked).
		{Layer: "kernels.dgemm", Start: ns(20), End: ns(80), Inst: 1, N: 4, Flag: 1},
		{Layer: "kernels.dgemm", Start: ns(30), End: ns(90), Inst: 1, N: 6, Flag: 2},
		// Five resolves, two of them SDC.
		{Layer: "arch.k40", Start: ns(14), End: ns(16), Inst: 2, Flag: 1},
		{Layer: "arch.k40", Start: ns(16), End: ns(18), Inst: 2},
		{Layer: "arch.k40", Start: ns(14), End: ns(16), Inst: 2, Flag: 1},
		{Layer: "arch.k40", Start: ns(16), End: ns(18), Inst: 2},
		{Layer: "arch.k40", Start: ns(18), End: ns(20), Inst: 2},
		{Layer: "store.put", Start: ns(100), End: ns(102), Key: key, N: 500},
	}
	return tr, []*jobRec{j}, spans, insts
}

func TestLayerRatiosCarryTheirBases(t *testing.T) {
	tr, jobs, spans, insts := syntheticRun(t)
	m, sum, _ := layerMetrics(tr, jobs, spans, insts)
	checks := []struct {
		name      string
		num, base float64
	}{
		{"kernels.masked_share", 3, 10},
		{"arch.sdc_share", 2, 5},
		{"store.hit_ratio", 0, 1},
		// Engine busy 60+60+10 ms over a 100 ms run on two workers.
		{"campaign.worker_busy_share", 130e6, 200e6},
		{"campaign.idle_share", 70e6, 200e6},
	}
	for _, c := range checks {
		r, ok := sum.Ratios[c.name]
		if !ok {
			t.Errorf("%s: no ratio recorded", c.name)
			continue
		}
		if r.Num != c.num || r.Base != c.base || math.Abs(m[c.name]-c.num/c.base) > 1e-12 {
			t.Errorf("%s = %v (%v / %v), want %v / %v", c.name, m[c.name], r.Num, r.Base, c.num, c.base)
		}
		if r.Of == "" {
			t.Errorf("%s: base is not named", c.name)
		}
	}
	if m["kernels.dgemm.runs"] != 10 || m["store.puts"] != 1 || m["store.put_bytes"] != 500 {
		t.Errorf("counts: runs %v puts %v bytes %v", m["kernels.dgemm.runs"], m["store.puts"], m["store.put_bytes"])
	}
	// Job wall is [0,110): lateness, submit and queue cover [0,10); in the
	// run, registry and store [11,13), arch [14,20), kernels [20,90) and
	// the put [100,102) — 90 ms covered.
	if got, want := sum.Ratios["trace.coverage"], 90.0/110; math.Abs(got.Value-want) > 1e-9 {
		t.Errorf("coverage = %v, want %v", got.Value, want)
	}
	// The run's self time is what no layer covers: [10,11), [13,14),
	// [90,100) and [102,110).
	if got := sum.Layers["service.run"].Self; got != 20*time.Millisecond {
		t.Errorf("service.run self = %v, want 20ms", got)
	}
	if sum.Unattributed != 0 {
		t.Errorf("%d spans left unattributed", sum.Unattributed)
	}
}

package registry_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/registry"
	"radcrit/internal/service"
	"radcrit/internal/telemetry"
	"radcrit/internal/xrand"
)

// fillTimeline lands one output-word strike on every iteration of an
// iterative kernel, so its golden timeline memo holds every step.
func fillTimeline(k kernels.Kernel, dev arch.Device, iters int) {
	g := k.Golden(dev)
	rng := xrand.New(1)
	for t := 0; t < iters; t++ {
		inj := arch.Injection{Scope: arch.ScopeOutputWord, When: (float64(t) + 0.5) / float64(iters)}
		k.RunInjectedOn(g, inj, rng)
	}
}

// TestGoldenCacheFloodStaysBounded floods the cache with distinct HotSpot
// configurations whose footprint grows after insertion, as a long-lived
// daemon accepting arbitrary specs would. The bytes the cache reports
// must fit the bound after every lookup, which takes evictions.
func TestGoldenCacheFloodStaysBounded(t *testing.T) {
	const limit = 1 << 20
	defer registry.SetGoldenCacheLimit(registry.SetGoldenCacheLimit(limit))
	dev := k40.New()
	before := registry.GoldenCacheStats()
	for i := 0; i < 40; i++ {
		iters := 40 + i
		k, err := registry.NewKernel(fmt.Sprintf("hotspot:32x%d", iters))
		if err != nil {
			t.Fatal(err)
		}
		if st := registry.GoldenCacheStats(); st.Bytes > limit {
			t.Fatalf("lookup %d: cache holds %d golden bytes, bound %d", i, st.Bytes, limit)
		}
		built := k.(interface{ GoldenBytes() int64 }).GoldenBytes()
		fillTimeline(k, dev, iters)
		if grown := k.(interface{ GoldenBytes() int64 }).GoldenBytes(); grown <= built {
			t.Fatalf("lookup %d: footprint %d did not grow past %d with the timeline memo", i, grown, built)
		}
	}
	after := registry.GoldenCacheStats()
	if after.Evictions == before.Evictions {
		t.Errorf("40 growing hotspot configurations under a %d-byte bound evicted nothing", limit)
	}
	if after.Misses-before.Misses != 40 {
		t.Errorf("misses rose by %d, want 40", after.Misses-before.Misses)
	}
}

// TestGoldenCacheCanonicalKey pins the key: the family plus the parsed
// integers, whichever route names the configuration.
func TestGoldenCacheCanonicalKey(t *testing.T) {
	a, err := registry.NewKernel("dgemm:0256")
	if err != nil {
		t.Fatal(err)
	}
	b, err := registry.NewKernel("dgemm:256")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("dgemm:0256 and dgemm:256 resolved to two instances")
	}

	hs := registry.HotSpot(64, 80)
	spelled, err := registry.NewKernel("hotspot:064x080")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := campaign.BuildCell(campaign.CellSpec{Device: "phi", Kernel: "hotspot:64x80"})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := campaign.NewPlan(1, 10).WithKernelOnDevices("hotspot:64x80", "k40", "phi").Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, k := range map[string]kernels.Kernel{
		"hotspot:064x080": spelled, "BuildCell": cell.Kern,
		"Plan.Build k40": cells[0].Kern, "Plan.Build phi": cells[1].Kern,
	} {
		if k != kernels.Kernel(hs) {
			t.Errorf("%s resolved to a different instance than registry.HotSpot(64, 80)", name)
		}
	}
}

// TestGoldenCacheSingleFlight races eight lookups of one missing spec:
// one builds, the other seven wait for it and count as hits.
func TestGoldenCacheSingleFlight(t *testing.T) {
	const spec = "hotspot:48x71"
	before := registry.GoldenCacheStats()
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [8]kernels.Kernel
		errs  [8]error
	)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = registry.NewKernel(spec)
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("lookup %d returned a second instance", i)
		}
	}
	after := registry.GoldenCacheStats()
	if m := after.Misses - before.Misses; m != 1 {
		t.Errorf("8 concurrent lookups of %s: %d misses, want 1", spec, m)
	}
	if h := after.Hits - before.Hits; h != 7 {
		t.Errorf("8 concurrent lookups of %s: %d hits, want 7", spec, h)
	}
}

// TestGoldenCacheSharedAcrossDevices runs two cells on different devices
// at once against one cached DGEMM instance (run it under -race). Each
// must match the same cell on a private, uncached instance.
func TestGoldenCacheSharedAcrossDevices(t *testing.T) {
	p := campaign.NewPlan(11, 200).WithKernelOnDevices("dgemm:192", "k40", "phi").WithWorkers(2).WithStreamChunk(25)
	cells, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Kern != cells[1].Kern {
		t.Fatal("k40 and phi cells of one DGEMM size hold two instances")
	}
	cfg, ts := p.Config(), p.EffectiveThresholds()
	run := func(c campaign.Cell) string {
		info, sum, err := campaign.RunPlanCell(context.Background(), c, cfg, ts)
		if err != nil {
			t.Error(err)
			return ""
		}
		data, err := json.Marshal(struct {
			Info campaign.StreamInfo
			Sum  *campaign.Summary
		}{info, sum})
		if err != nil {
			t.Error(err)
		}
		return string(data)
	}
	var shared [2]string
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i] = run(cells[i])
		}()
	}
	wg.Wait()
	for i, c := range cells {
		if want := run(campaign.Cell{Dev: c.Dev, Kern: dgemm.New(192)}); shared[i] != want {
			t.Errorf("cell %d on the shared instance differs from a private instance", i)
		}
	}
}

// TestGoldenCacheStatesByteIdentical runs one plan through the daemon
// with a cold cache, a warm cache, and after an eviction in between. All
// three must be byte-identical to service.RunDirect.
func TestGoldenCacheStatesByteIdentical(t *testing.T) {
	p := campaign.NewPlan(23, 80).
		Named("golden-cache").
		WithKernelOnDevices("dgemm:128", "k40", "phi").
		WithKernelOnDevices("lavamd:4", "k40", "phi").
		WithCell("k40", "hotspot:64x80").
		WithCell("phi", "clamr:48x60").
		WithThresholds(0, 2).
		WithWorkers(2).
		WithStreamChunk(20)

	registry.ResetGoldenCache()
	c0 := registry.GoldenCacheStats()
	cold := daemonSummaries(t, p)
	c1 := registry.GoldenCacheStats()
	if c1.Misses == c0.Misses {
		t.Fatal("the cold run built nothing")
	}

	warm := daemonSummaries(t, p)
	c2 := registry.GoldenCacheStats()
	if c2.Misses != c1.Misses || c2.Hits == c1.Hits {
		t.Fatalf("warm run: %d misses, %d hits; want only hits", c2.Misses-c1.Misses, c2.Hits-c1.Hits)
	}

	old := registry.SetGoldenCacheLimit(0)
	if _, err := registry.NewKernel("dgemm:64"); err != nil {
		t.Fatal(err)
	}
	registry.SetGoldenCacheLimit(old)
	c3 := registry.GoldenCacheStats()
	if c3.Evictions == c2.Evictions {
		t.Fatal("a zero bound evicted nothing")
	}
	evicted := daemonSummaries(t, p)
	if registry.GoldenCacheStats().Misses == c3.Misses {
		t.Fatal("the run after the eviction rebuilt nothing")
	}

	res, err := service.RunDirect(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := summariesJSON(t, res)
	for name, got := range map[string]string{"cold": cold, "warm": warm, "evicted": evicted} {
		if got != want {
			t.Errorf("%s-cache daemon summaries differ from RunDirect", name)
		}
	}
}

// daemonSummaries runs p as one job on a fresh daemon, so the result
// store misses and every cell looks its kernel up.
func daemonSummaries(t *testing.T, p *campaign.Plan) string {
	t.Helper()
	m, err := service.New(service.Options{StateDir: t.TempDir(), Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	s, err := m.Submit(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		snap, err := m.Job(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == service.StateDone {
			break
		}
		if snap.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s (%s)", s.ID, snap.State, snap.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := m.Result(s.ID)
	if err != nil {
		t.Fatal(err)
	}
	return summariesJSON(t, res)
}

// summariesJSON renders the per-cell summaries of a result, the
// byte-comparison form of the daemon's bit-identity contract.
func summariesJSON(t *testing.T, jr *service.JobResult) string {
	t.Helper()
	type cell struct {
		Spec    campaign.CellSpec    `json:"spec"`
		Info    *campaign.StreamInfo `json:"info"`
		Summary *campaign.Summary    `json:"summary"`
	}
	var cells []cell
	for _, c := range jr.Cells {
		if c.Error != "" {
			t.Fatalf("cell %s/%s failed: %s", c.Spec.Device, c.Spec.Kernel, c.Error)
		}
		cells = append(cells, cell{Spec: c.Spec, Info: c.Info, Summary: c.Summary})
	}
	data, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestGoldenCacheMetrics checks that every cache family renders a sample.
func TestGoldenCacheMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	registry.RegisterMetrics(reg)
	if _, err := registry.NewKernel("dgemm:128"); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	for _, name := range []string{
		"radcrit_golden_cache_hits_total", "radcrit_golden_cache_misses_total",
		"radcrit_golden_cache_evictions_total", "radcrit_golden_cache_bytes",
	} {
		if !strings.Contains(buf.String(), "\n"+name+" ") {
			t.Errorf("/metrics lacks a %s sample:\n%s", name, buf.String())
		}
	}
}

// Benchmarks of the per-strike hot path: the cost of one classified
// strike through a prepared injector.Session, per kernel family. Two
// populations are measured:
//
//   - BenchmarkStrike<Kernel> draws the full strike population (masked,
//     SDC, crash, hang in campaign proportions) — the number a campaign's
//     strikes/second follows. Its allocs/op is guarded by cmd/benchguard
//     in CI against the baselines recorded in BENCH_campaign.json.
//   - BenchmarkInjected<Kernel> replays only strikes whose syndrome is an
//     SDC, so every iteration pays a full injected kernel execution — the
//     worst-case per-strike cost and the target of the pooled scratch
//     arenas (ISSUE 4: >=2x on the iterative kernels).
//
// Both are warm numbers: every strike the timed loop visits runs once
// before the timer starts, so no lazily built golden state (DGEMM rows,
// LavaMD box tables, HotSpot and CLAMR timeline states) is built inside
// it. BenchmarkGolden<Kernel> is the cold number the registry's instance
// cache saves: a fresh instance and its first strikes.
//
// Run with: go test -bench='Strike|Injected|Golden' -benchmem -run='^$' .
package radcrit

import (
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/beam"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/clamr"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/hotspot"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/phi"
	"radcrit/internal/xrand"
)

// strikeCycle is the number of distinct per-index RNG splits the mixed
// benchmarks cycle through: large enough to visit a representative strike
// population, small enough that golden-state caches stay warm.
const strikeCycle = 4096

// strikeAt reproduces the campaign engine's per-index strike derivation.
func strikeAt(rng *xrand.RNG, i uint64) (fault.Strike, *xrand.RNG) {
	sub := rng.Split(i + 1)
	return fault.Strike{When: sub.Float64(), Energy: beam.StrikeEnergy(sub)}, sub
}

// prewarm runs each listed strike once, completing the golden state and
// the session pools the timed loop will touch.
func prewarm(ses *injector.Session, rng *xrand.RNG, idxs []uint64) {
	for _, i := range idxs {
		strike, sub := strikeAt(rng, i)
		releaseOutcome(ses, ses.RunOne(strike, sub))
	}
}

// benchStrikeMix measures the full strike population through a session.
func benchStrikeMix(b *testing.B, dev arch.Device, kern kernels.Kernel) {
	ses, err := injector.NewSession(dev, kern)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(42)
	visited := make([]uint64, min(b.N, strikeCycle))
	for i := range visited {
		visited[i] = uint64(i)
	}
	prewarm(ses, rng, visited)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strike, sub := strikeAt(rng, uint64(i%strikeCycle))
		releaseOutcome(ses, ses.RunOne(strike, sub))
	}
}

// benchInjected measures SDC-syndrome strikes only: each iteration runs
// the real injected kernel and builds a mismatch report.
func benchInjected(b *testing.B, dev arch.Device, kern kernels.Kernel) {
	ses, err := injector.NewSession(dev, kern)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(42)
	prof := ses.Profile()
	// Collect strike indices whose syndrome resolves to an SDC, probing
	// with a throwaway RNG clone exactly as Session.RunOne would.
	var idxs []uint64
	for i := uint64(0); i < 65536 && len(idxs) < 256; i++ {
		strike, sub := strikeAt(rng, i)
		if syn := dev.ResolveStrike(prof, strike, sub); syn.Outcome == fault.SDC {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		b.Fatal("no SDC syndromes in probe window")
	}
	prewarm(ses, rng, idxs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strike, sub := strikeAt(rng, idxs[i%len(idxs)])
		releaseOutcome(ses, ses.RunOne(strike, sub))
	}
}

// benchInjectedBatch measures the same SDC corpus through the session's
// cross-strike batch path (Session.RunBatch -> kernels.BatchRunner) in
// spans of batchSpan strikes, the shape the streaming engine's chunk
// loop produces. ns/op stays per strike, directly comparable with
// BenchmarkInjected<Kernel>.
func benchInjectedBatch(b *testing.B, dev arch.Device, kern kernels.Kernel) {
	const batchSpan = 64
	ses, err := injector.NewSession(dev, kern)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(42)
	prof := ses.Profile()
	var idxs []uint64
	for i := uint64(0); i < 65536 && len(idxs) < 256; i++ {
		strike, sub := strikeAt(rng, i)
		if syn := dev.ResolveStrike(prof, strike, sub); syn.Outcome == fault.SDC {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		b.Fatal("no SDC syndromes in probe window")
	}
	strikes := make([]fault.Strike, batchSpan)
	rngs := make([]*xrand.RNG, batchSpan)
	outs := make([]injector.Outcome, batchSpan)
	runSpan := func(base, n int) {
		for j := 0; j < n; j++ {
			strikes[j], rngs[j] = strikeAt(rng, idxs[(base+j)%len(idxs)])
		}
		ses.RunBatch(strikes[:n], rngs[:n], outs[:n])
		for j := 0; j < n; j++ {
			releaseOutcome(ses, outs[j])
			outs[j] = injector.Outcome{}
		}
	}
	prewarm(ses, rng, idxs)
	runSpan(0, batchSpan) // warm the batch path's pooled reports
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSpan {
		runSpan(i, min(batchSpan, b.N-i))
	}
}

func BenchmarkStrikeDGEMM(b *testing.B)   { benchStrikeMix(b, k40.New(), dgemm.New(256)) }
func BenchmarkStrikeLavaMD(b *testing.B)  { benchStrikeMix(b, k40.New(), lavamd.New(5)) }
func BenchmarkStrikeHotSpot(b *testing.B) { benchStrikeMix(b, k40.New(), hotspot.New(64, 80)) }
func BenchmarkStrikeCLAMR(b *testing.B)   { benchStrikeMix(b, phi.New(), clamr.New(48, 60)) }

func BenchmarkInjectedDGEMM(b *testing.B)   { benchInjected(b, k40.New(), dgemm.New(256)) }
func BenchmarkInjectedLavaMD(b *testing.B)  { benchInjected(b, k40.New(), lavamd.New(5)) }
func BenchmarkInjectedHotSpot(b *testing.B) { benchInjected(b, k40.New(), hotspot.New(64, 80)) }
func BenchmarkInjectedCLAMR(b *testing.B)   { benchInjected(b, phi.New(), clamr.New(48, 60)) }

func BenchmarkInjectedBatchDGEMM(b *testing.B)  { benchInjectedBatch(b, k40.New(), dgemm.New(256)) }
func BenchmarkInjectedBatchLavaMD(b *testing.B) { benchInjectedBatch(b, k40.New(), lavamd.New(5)) }
func BenchmarkInjectedBatchHotSpot(b *testing.B) {
	benchInjectedBatch(b, k40.New(), hotspot.New(64, 80))
}
func BenchmarkInjectedBatchCLAMR(b *testing.B) { benchInjectedBatch(b, phi.New(), clamr.New(48, 60)) }

// goldenStrikes is how many strikes a cold golden bench runs on its
// fresh instance.
const goldenStrikes = 32

// benchGolden measures the cold cost per cell: build a fresh instance and
// run its first goldenStrikes strikes of the full population, paying
// every eager and lazy golden-state build they need.
func benchGolden(b *testing.B, dev arch.Device, build func() kernels.Kernel) {
	rng := xrand.New(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ses, err := injector.NewSession(dev, build())
		if err != nil {
			b.Fatal(err)
		}
		for j := uint64(0); j < goldenStrikes; j++ {
			strike, sub := strikeAt(rng, j)
			releaseOutcome(ses, ses.RunOne(strike, sub))
		}
	}
}

func BenchmarkGoldenDGEMM(b *testing.B) {
	benchGolden(b, k40.New(), func() kernels.Kernel { return dgemm.New(256) })
}
func BenchmarkGoldenLavaMD(b *testing.B) {
	benchGolden(b, k40.New(), func() kernels.Kernel { return lavamd.New(5) })
}
func BenchmarkGoldenHotSpot(b *testing.B) {
	benchGolden(b, k40.New(), func() kernels.Kernel { return hotspot.New(64, 80) })
}
func BenchmarkGoldenCLAMR(b *testing.B) {
	benchGolden(b, phi.New(), func() kernels.Kernel { return clamr.New(48, 60) })
}

// releaseOutcome returns an outcome's report to the session pool, modeling
// the streaming engine's per-strike release.
func releaseOutcome(ses *injector.Session, out injector.Outcome) {
	ses.ReleaseReport(out.Report)
}

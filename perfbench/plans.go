package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"radcrit/internal/campaign"
	"radcrit/internal/xrand"
)

// The paper's matrix: four kernels on the K40 and the Xeon Phi. Cold
// sizes are large enough that golden-state work (eager simulations,
// lazily built DGEMM rows, LavaMD golden-sum tables, HotSpot/CLAMR
// timeline snapshots) dominates a job with few strikes per cell; warm
// sizes are the strike-bench sizes, where strikes dominate.
var (
	coldKernels = []string{"dgemm:512", "lavamd:8", "hotspot:256x200", "clamr:96x120"}
	warmKernels = []string{"dgemm:256", "lavamd:5", "hotspot:64x80", "clamr:48x60"}
)

const (
	coldStrikes    = 40  // per cell of the cold matrix
	warmStrikes    = 300 // per cell of a warm matrix job
	prewarmStrikes = 20  // per cell of the set-up job
)

// Seed labels keep every stream of a workload independent.
const (
	labelPrewarm = "prewarm"
	labelJob     = "job"
	labelMix     = "mix"
)

func matrixPlan(name string, seed uint64, strikes, workers int, specs []string) *campaign.Plan {
	p := campaign.NewPlan(seed, strikes).Named(name).WithWorkers(workers)
	for _, k := range specs {
		p.WithKernelOnDevices(k, deviceNames...)
	}
	return p
}

// coldCorpus is how many cold plans the processes of matrix-cold rotate
// through.
const coldCorpus = 16

// coldPlan is the paper matrix run by the i-th fresh process of a
// matrix-cold run: entry (seed+i) mod coldCorpus of a fixed corpus of
// cell seeds. A cold job's cost swings by a fifth with its cell seed (a
// few strikes corrupt thousands of outputs), so a run averages over about
// ten entries, and runs on different seeds share most of them.
func coldPlan(seed uint64, i, workers int) *campaign.Plan {
	e := (seed + uint64(i)) % coldCorpus
	s := xrand.New(0).SplitString(labelJob + "-cold").Split(e + 1).Uint64()
	return matrixPlan("matrix-cold", s, coldStrikes, workers, coldKernels)
}

// prewarmPlan is the set-up job of the warm workloads. It only has to
// build the memoised HotSpot/CLAMR golden runs, so its cells use one seed
// for every run: set-up then costs the same on every seed.
func prewarmPlan(workers int) *campaign.Plan {
	return matrixPlan("prewarm", xrand.New(0).SplitString(labelPrewarm).Uint64(), prewarmStrikes, workers, warmKernels)
}

// warmPlan is the i-th back-to-back job of matrix-warm: the same matrix
// under a new seed, so every cell misses the store.
func warmPlan(seed uint64, i, workers int) *campaign.Plan {
	s := xrand.New(seed).SplitString(labelJob).Split(uint64(i) + 1).Uint64()
	return matrixPlan(fmt.Sprintf("matrix-warm-%d", i), s, warmStrikes, workers, warmKernels)
}

// mixJob is one arrival of the service-mix open loop.
type mixJob struct {
	Due    time.Duration // offset from the start of the measured window
	Tenant string
	Plan   *campaign.Plan
	Repeat int // index of the history job this one repeats, or -1
}

// Tenants of service-mix and their traffic and scheduling weights.
var mixTenants = []struct {
	Name   string
	Weight int
}{{"alpha", 3}, {"beta", 1}}

// mixHistory is how many jobs the set-up computes for service-mix
// repeats to draw from (tenants 3:1), so every repeat is a store hit from
// the first arrival on.
const mixHistory = 4

// mixShape is one fresh service-mix job: one or two warm-size cells and
// a strike budget.
type mixShape struct {
	cells   []campaign.CellSpec
	strikes int
}

// mixShapes is the deck fresh jobs are dealt from, reshuffled for every
// pass. Dealing from a fixed deck gives every seed the same offered work,
// so seeds differ in arrival times, order and tenants, not in load. Every
// kernel and device appears; LavaMD, whose fresh golden tables make a
// cell cost several times the others, appears once, so that a few jobs do
// not decide the mean.
var mixShapes = func() []mixShape {
	cell := func(device string, kernel int) campaign.CellSpec {
		return campaign.CellSpec{Device: device, Kernel: warmKernels[kernel]}
	}
	const dgemm, lavamd, hotspot, clamr = 0, 1, 2, 3
	return []mixShape{
		{[]campaign.CellSpec{cell("k40", dgemm)}, 200},
		{[]campaign.CellSpec{cell("phi", dgemm), cell("k40", hotspot)}, 100},
		{[]campaign.CellSpec{cell("phi", lavamd)}, 100},
		{[]campaign.CellSpec{cell("k40", clamr), cell("phi", hotspot)}, 300},
		{[]campaign.CellSpec{cell("k40", hotspot)}, 300},
		{[]campaign.CellSpec{cell("phi", clamr)}, 200},
		{[]campaign.CellSpec{cell("phi", hotspot), cell("k40", dgemm)}, 100},
		{[]campaign.CellSpec{cell("k40", clamr)}, 300},
	}
}()

// mixDeal deals jobs from the shape deck, reshuffling it for every
// pass. A dealt job's cell seed is a function of its shape and pass under
// the corpus stream only, so the deck's order can change while the set of
// jobs stays the same.
type mixDeal struct {
	corpus *xrand.RNG
	deck   []int
	dealt  int
}

func (d *mixDeal) plan(r *xrand.RNG, name string) *campaign.Plan {
	if d.dealt%len(mixShapes) == 0 {
		d.deck = r.Perm(len(mixShapes))
	}
	e, pass := d.deck[d.dealt%len(mixShapes)], d.dealt/len(mixShapes)
	d.dealt++
	shape := mixShapes[e]
	seed := d.corpus.Split(uint64(e) + 1).Split(uint64(pass) + 1).Uint64()
	p := campaign.NewPlan(seed, shape.strikes).Named(name).WithWorkers(1)
	for _, c := range shape.cells {
		p.WithCell(c.Device, c.Kernel)
	}
	return p
}

// mixJobs rounds an arrival count to whole passes of the deck: half the
// arrivals are fresh, so 2*len(mixShapes) arrivals offer every shape the
// same number of times on every seed.
func mixJobs(rate, seconds float64) int {
	pass := 2 * len(mixShapes)
	return pass * max(1, int(math.Round(rate*seconds/float64(pass))))
}

// mixSchedule draws the set-up history and n arrivals over window from
// seed. The history is the same on every seed, so set-up costs the same
// on every seed. Arrivals are a Poisson process conditioned on its count, so n
// sorted uniform times. Every block of four arrivals holds one beta job
// (tenants weighted 3:1); even arrivals are fresh jobs dealt from the
// deck, odd arrivals repeat a history job of their tenant. Job contents
// depend only on (seed, index), never on the window.
func mixSchedule(seed uint64, n int, window time.Duration) (history, jobs []mixJob) {
	root := xrand.New(seed).SplitString(labelMix)
	// Jobs come from one corpus for every seed: a job's cost varies
	// several-fold with its cell seed (lazily built golden tables), and a
	// per-seed corpus would make that variation, not the daemon, decide
	// the seed-to-seed spread. The seed still orders the fresh deck, times
	// the arrivals, assigns tenants and picks the repeats.
	corpus := xrand.New(0).SplitString(labelMix + "-corpus")
	histDeal := mixDeal{corpus: corpus.SplitString("history")}
	histOrder := corpus.SplitString("history-order")
	freshDeal := mixDeal{corpus: corpus.SplitString("fresh")}
	for h := 0; h < mixHistory; h++ {
		t := mixTenants[0].Name
		if h%4 == 3 {
			t = mixTenants[1].Name
		}
		history = append(history, mixJob{Tenant: t, Repeat: -1,
			Plan: histDeal.plan(histOrder, fmt.Sprintf("mix-history-%d", h))})
	}

	times := root.SplitString("arrivals")
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = times.Float64() * window.Seconds()
	}
	sort.Float64s(offsets)
	jobs = make([]mixJob, n)
	betaAt := 0
	for i := range jobs {
		r := root.Split(uint64(i) + 1)
		if i%4 == 0 {
			betaAt = i + r.Intn(4)
		}
		j := mixJob{Due: time.Duration(offsets[i] * float64(time.Second)), Tenant: mixTenants[0].Name, Repeat: -1}
		if i == betaAt {
			j.Tenant = mixTenants[1].Name
		}
		name := fmt.Sprintf("mix-%d", i)
		if i%2 == 1 {
			var pool []int
			for k, h := range history {
				if h.Tenant == j.Tenant {
					pool = append(pool, k)
				}
			}
			j.Repeat = pool[r.Intn(len(pool))]
			p := *history[j.Repeat].Plan
			p.Name = name
			j.Plan = &p
		} else {
			j.Plan = freshDeal.plan(r, name)
		}
		jobs[i] = j
	}
	return history, jobs
}

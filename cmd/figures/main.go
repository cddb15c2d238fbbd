// Command figures regenerates every table and figure of the paper's
// evaluation section (§V) from simulated beam campaigns.
//
// Usage:
//
//	figures [-scale test|paper] [-strikes N] [-seed S] [-only ID[,ID...]]
//	        [-maxpoints N] [-plan plan.json]
//
// IDs: T1 T2 F2 F3 F4 F5 F6 F7 F8 F9 S1 S2 S3 S4 X1 (see DESIGN.md §3).
// The test scale runs the full set in tens of seconds; the paper scale
// uses Table II input sizes and takes considerably longer.
//
// -plan takes the campaign configuration (seed, strikes, workers,
// facility) from a declarative plan file instead of the flags; the
// artifact set and its cells still follow -scale/-only.
//
// Every campaign artifact (F2-F8, S1-S3, X1) is assembled from one
// streaming pass (DESIGN.md §6): each distinct device x kernel x input
// cell the selection reads runs exactly once, concurrently, feeding the
// online reducers its artifacts need, and no SDC report is retained.
// -maxpoints bounds each scatter input to a uniform reservoir sample for
// strike budgets whose point clouds would not fit in memory.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/cli"
	"radcrit/internal/kernels"
	"radcrit/internal/registry"
	"radcrit/internal/report"
	"radcrit/internal/swinject"
)

func main() {
	scaleFlag := flag.String("scale", "test", "experiment scale: test or paper")
	strikes := flag.Int("strikes", 400, "strikes per experiment cell")
	seed := flag.Uint64("seed", 2017, "campaign seed")
	only := flag.String("only", "", "comma-separated artifact IDs (default: all)")
	maxPoints := flag.Int("maxpoints", 0, "scatter reservoir size per input (0 keeps every point)")
	planPath := flag.String("plan", "", "JSON plan `file` supplying seed/strikes/workers/facility")
	var adaptiveF cli.AdaptiveFlags
	adaptiveF.Bind(flag.CommandLine)
	var prof cli.ProfileFlags
	prof.Bind(flag.CommandLine)
	var submit cli.SubmitFlags
	submit.Bind(flag.CommandLine)
	showVersion := cli.VersionFlag(flag.CommandLine)
	flag.Parse()
	cli.ExitIfVersion(*showVersion)
	if submit.Active() {
		// Client mode: run the -plan campaign on a radcritd daemon and
		// print its per-cell summaries. Artifact rendering needs retained
		// local results, so it stays an in-process concern.
		if *planPath == "" {
			cli.Fatal("figures", "-submit needs -plan (the daemon runs plan documents, not artifact sets)")
		}
		plan, err := cli.LoadPlanFile(*planPath)
		if err != nil {
			cli.Fatal("figures", "%v", err)
		}
		// The daemon honours early stopping per cell, so the adaptive
		// flags ride along in client mode.
		if err := adaptiveF.Apply(plan); err != nil {
			cli.Fatal("figures", "%v", err)
		}
		res, err := submit.Run(context.Background(), plan)
		if err != nil {
			cli.Fatal("figures", "%v", err)
		}
		cli.PrintJobSummaries(os.Stdout, res)
		return
	}
	if adaptiveF.Active() {
		fmt.Fprintln(os.Stderr, "figures: the adaptive flags only apply in -submit mode; local artifact generation uses fixed budgets so every figure reads the full strike count")
	}
	if err := prof.Start(); err != nil {
		cli.Fatal("figures", "start profiling: %v", err)
	}

	scale := campaign.TestScale
	switch *scaleFlag {
	case "test":
	case "paper":
		scale = campaign.PaperScale
	default:
		fmt.Fprintln(os.Stderr, "figures: -scale must be test or paper")
		os.Exit(2)
	}
	cfg := campaign.DefaultConfig(*seed, *strikes)
	if *planPath != "" {
		plan, err := cli.LoadPlanFile(*planPath)
		if err != nil {
			cli.Fatal("figures", "%v", err)
		}
		cfg = plan.Config()
		if cfg.Adaptive != nil {
			fmt.Fprintln(os.Stderr, "figures: ignoring the plan's adaptive spec; local artifact generation uses fixed budgets")
			cfg.Adaptive = nil
		}
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	set := selectArtifacts(os.Stdout, sel, scale, cfg, *maxPoints)
	if err := set.pass.Run(); err != nil {
		cli.Fatal("figures", "%v", err)
	}
	for _, render := range set.renders {
		render()
	}

	if err := prof.Stop(); err != nil {
		cli.Fatal("figures", "write profile: %v", err)
	}
}

// artifactSet is the selected artifacts: the streaming pass that
// evaluates every campaign cell they read, and their renderers in
// presentation order. Renderers only run after the pass has.
type artifactSet struct {
	pass    *campaign.FigurePass
	renders []func()
}

// selectArtifacts registers every selected artifact with one figure
// pass and returns it with the renderers that print each artifact to w.
// An artifact's cells and the statistics it prints come from the same
// registration call, so the pass can neither miss a cell an artifact
// reads nor run a cell twice.
func selectArtifacts(w io.Writer, sel func(string) bool, scale campaign.Scale, cfg campaign.Config, maxPoints int) *artifactSet {
	set := &artifactSet{pass: campaign.NewFigurePass(cfg, maxPoints)}
	pass := set.pass
	emit := func(title string, render func()) {
		set.renders = append(set.renders, func() {
			header(w, title)
			render()
		})
	}
	k40Dev := mustDevice("k40")
	phiDev := mustDevice("phi")
	devices := []arch.Device{k40Dev, phiDev}

	if sel("T1") {
		emit("Table I — classification of parallel kernels", func() {
			t := &report.Table{Header: []string{"kernel", "bound by", "load balance", "memory access"}}
			for _, k := range campaign.AllKernels(scale, k40Dev) {
				c := k.Class()
				t.Add(k.Name(), c.BoundBy, c.LoadBalance, c.MemoryAccess)
			}
			t.Render(w)
		})
	}

	if sel("T2") {
		emit("Table II — parallel kernels' details", func() {
			t := &report.Table{Header: []string{"kernel", "domain", "input size", "#threads (K40)", "#threads (Phi)"}}
			for i, k := range campaign.AllKernels(scale, k40Dev) {
				pk := k.Profile(k40Dev)
				pp := campaign.AllKernels(scale, phiDev)[i].Profile(phiDev)
				t.Add(k.Name(), k.Domain(), k.InputLabel(),
					fmt.Sprint(pk.Threads), fmt.Sprint(pp.Threads))
			}
			t.Render(w)
		})
	}

	// perDevice registers one subfigure per device and renders them in
	// device order, each followed by a blank line.
	perDevice := func(id, title string, subfigure func(dev arch.Device) func()) {
		if !sel(id) {
			return
		}
		var subs []func()
		for _, dev := range devices {
			subs = append(subs, subfigure(dev))
		}
		emit(title, func() {
			for _, sub := range subs {
				sub()
				fmt.Fprintln(w)
			}
		})
	}
	scatter := func(kernel string, capPct float64, cells func(arch.Device) []campaign.Cell) func(arch.Device) func() {
		return func(dev arch.Device) func() {
			s := pass.Scatter(kernel, capPct, cells(dev))
			return func() { report.Scatter(w, s(), 64, 16) }
		}
	}
	locality := func(kernel string, cells func(arch.Device) []campaign.Cell) func(arch.Device) func() {
		return func(dev arch.Device) func() {
			f := pass.Locality(kernel, cells(dev))
			return func() { report.LocalityBars(w, f(), 60) }
		}
	}
	dgemmCells := func(dev arch.Device) []campaign.Cell { return campaign.DGEMMCells(dev, scale) }
	lavamdCells := func(dev arch.Device) []campaign.Cell { return campaign.LavaMDCells(dev, scale) }
	hotspotCells := func(dev arch.Device) []campaign.Cell {
		return []campaign.Cell{{Dev: dev, Kern: campaign.HotSpotKernel(scale)}}
	}

	perDevice("F2", "Figure 2 — DGEMM mean relative error vs incorrect elements", scatter("DGEMM", 100, dgemmCells))
	perDevice("F3", "Figure 3 — DGEMM spatial locality and magnitude (FIT a.u.)", locality("DGEMM", dgemmCells))
	perDevice("F4", "Figure 4 — LavaMD mean relative error vs incorrect elements", scatter("LavaMD", 20000, lavamdCells))
	perDevice("F5", "Figure 5 — LavaMD spatial locality and magnitude (FIT a.u.)", locality("LavaMD", lavamdCells))
	perDevice("F6", "Figure 6 — HotSpot mean relative error vs incorrect elements", scatter("HotSpot", 0, hotspotCells))
	perDevice("F7", "Figure 7 — HotSpot spatial locality and magnitude (FIT a.u.)", locality("HotSpot", hotspotCells))

	if sel("F8") {
		s := pass.Scatter("CLAMR", 0, []campaign.Cell{{Dev: phiDev, Kern: campaign.CLAMRKernel(scale)}})
		emit("Figure 8 — CLAMR mean relative error vs incorrect elements (Xeon Phi)", func() {
			report.Scatter(w, s(), 64, 16)
		})
	}

	if sel("F9") {
		emit("Figure 9 — CLAMR error locality map", func() {
			report.LocalityMap(w, campaign.BuildCLAMRLocalityMap(phiDev, scale, cfg), 64)
		})
	}

	if sel("S1") {
		rows := pass.Ratios(campaign.AllCells(scale))
		emit("§V preamble — SDC : crash+hang ratios", func() { report.Ratios(w, rows()) })
	}

	perDevice("S2", "§V-A — DGEMM FIT growth with input size", func(dev arch.Device) func() {
		rows := pass.Scaling(dgemmCells(dev))
		return func() { report.Scaling(w, rows()) }
	})
	perDevice("S3", "§V-A — ABFT-correctable share of DGEMM errors", func(dev arch.Device) func() {
		rows := pass.ABFT(dgemmCells(dev))
		return func() { report.ABFT(w, rows()) }
	})

	if sel("S4") {
		emit("§V-D — CLAMR mass-conservation check coverage", func() {
			report.MassCheck(w, campaign.BuildMassCheckCoverage(phiDev, scale, cfg, 2))
		})
	}

	if sel("X1") {
		kern := mustKernel(cli.DefaultSpec("dgemm", scale, k40Dev))
		byResource := pass.ResourceTally(campaign.Cell{Dev: k40Dev, Kern: kern})
		emit("Extension: §IV-D — beam vs software fault injector", func() {
			blind := swinject.Compare(byResource())
			sw := swinject.Run(k40Dev, kern, cfg.Strikes, cfg.Seed)
			fmt.Fprintf(w, "K40 DGEMM %s, %d beam strikes vs %d software injections\n",
				kern.InputLabel(), cfg.Strikes, cfg.Strikes)
			fmt.Fprintf(w, "  software-injector AVF estimate: %.2f\n", sw.AVF)
			fmt.Fprintf(w, "  beam SDCs outside the injector's reach: %d/%d (%.0f%%)\n",
				blind.InaccessibleSDCs, blind.BeamSDCs, 100*blind.SDCBlindFraction())
			fmt.Fprintf(w, "  beam crashes+hangs outside its reach:   %d/%d (%.0f%%)\n",
				blind.InaccessibleDUEs, blind.BeamDUEs, 100*blind.DUEBlindFraction())
			fmt.Fprintln(w, "  (the paper's §IV-D argument for beam time: schedulers, dispatchers")
			fmt.Fprintln(w, "   and control logic are inaccessible to software injectors)")
		})
	}
	return set
}

func mustDevice(name string) arch.Device {
	dev, err := registry.NewDevice(name)
	if err != nil {
		cli.Fatal("figures", "%v", err)
	}
	return dev
}

func mustKernel(spec string) kernels.Kernel {
	kern, err := registry.NewKernel(spec)
	if err != nil {
		cli.Fatal("figures", "%v", err)
	}
	return kern
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================================================================\n%s\n================================================================\n", title)
}

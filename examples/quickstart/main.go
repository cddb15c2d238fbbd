// Quickstart: define a small beam campaign of DGEMM on both devices as a
// declarative plan, run each of its cells, then apply the paper's
// criticality methodology — incorrect elements, mean relative error,
// spatial locality — under the 2% imprecision filter, and compare the
// architectures.
package main

import (
	"context"
	"fmt"
	"os"

	"radcrit"
)

func main() {
	const (
		strikes = 300
		seed    = 42
	)

	fmt.Println("radcrit quickstart: DGEMM under simulated neutron beam")
	fmt.Println()

	// A campaign is data: cells named by registry specs, plus the
	// statistical configuration. The same plan serialises to JSON
	// (radcrit.SavePlan) and runs from any cmd/ tool via -plan.
	plan := radcrit.NewPlan(seed, strikes).
		Named("quickstart").
		WithKernelOnDevices("dgemm:256", "k40", "phi").
		WithThresholds(0, radcrit.DefaultThresholdPct)

	// Validating and building the plan resolves its cells. Each cell then
	// runs through the streaming engine with two extra sinks beside the
	// summary reducers: the criticality analysis and the selective-
	// hardening advisor. No SDC report outlives its strike.
	cells, err := plan.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}

	// The paper's DGEMM figures cap per-element relative errors at 100%
	// for readability (Fig. 2); do the same here.
	opts := radcrit.DefaultAnalysisOptions()
	opts.CapPct = 100

	profiles := map[string]*radcrit.Criticality{}
	var advice radcrit.HardeningAdvice
	for i, c := range cells {
		crit := radcrit.NewAnalyzer(opts)
		advisor := radcrit.NewHardeningAdvisor(radcrit.DefaultThresholdPct)
		info, sum, err := radcrit.RunPlanCell(context.Background(), c, plan.Config(),
			plan.EffectiveThresholds(), crit, advisor)
		if err != nil {
			fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d strikes -> %d masked, %d SDC, %d crash, %d hang (SDC:DUE %.2f)\n",
			info.Device, info.Strikes,
			sum.Tally.Masked, sum.Tally.SDC, sum.Tally.Crash, sum.Tally.Hang,
			sum.Tally.SDCToDUERatio())

		profiles[info.Device] = crit.Criticality()
		fmt.Print(profiles[info.Device])
		fmt.Println()

		// Render the Figure-3-style locality breakdown for this device:
		// the plan's thresholds {0, 2} are its unfiltered and filtered bars.
		radcrit.RenderLocality(os.Stdout, info, sum)
		fmt.Println()

		if i == 0 {
			advice = radcrit.AdviseHardening(info, advisor)
		}
	}

	fmt.Println("cross-architecture verdict (§V-E):")
	fmt.Println(radcrit.Verdict("K40", profiles["K40"], "XeonPhi", profiles["XeonPhi"]))
	fmt.Println()

	// The paper's proposed follow-up (§VI): find the resources behind the
	// K40 cell's critical errors and harden only those.
	fmt.Print(advice)
}

// Example clamr_masscheck: corrupt the shallow-water dam-break simulation
// mid-flight, watch the error wave spread (§V-D, Fig. 9), and evaluate the
// mass-conservation detector that real CLAMR ships (82% fault coverage in
// the paper's reference [4]).
package main

import (
	"fmt"
	"os"
	"strings"

	"radcrit"
	"radcrit/internal/arch"
	"radcrit/internal/detect"
	"radcrit/internal/fault"
	"radcrit/internal/floatbits"
	"radcrit/internal/kernels/clamr"
	"radcrit/internal/xrand"
)

func main() {
	const (
		side  = 96
		steps = 150
	)
	fmt.Printf("CLAMR dam break %dx%d, %d steps: error waves and the mass check\n\n", side, steps, steps)

	// Resolve the scenario by registry name — the same spec a plan file
	// or a -kernel flag would use. The mass-check analyses below need the
	// concrete CLAMR type.
	k, err := radcrit.NewKernel(fmt.Sprintf("clamr:%dx%d", side, steps))
	if err != nil {
		fmt.Fprintf(os.Stderr, "clamr_masscheck: %v\n", err)
		os.Exit(1)
	}
	kern := k.(*clamr.Kernel)
	dev, err := radcrit.NewDevice("phi")
	if err != nil {
		fmt.Fprintf(os.Stderr, "clamr_masscheck: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("golden total water volume: %.1f (conserved to FP accuracy)\n", kern.GoldenMass())
	fmt.Printf("mean refined-cell fraction (AMR): %.1f%%\n\n", 100*kern.RefinedFraction())

	// One corrupted state word at 40% progress: the wave of incorrect
	// elements grows as the execution continues. Sweep seeds to show both
	// faces of the detector: a mass-violating corruption (height word,
	// detected) and a mass-conserving one (momentum word, escapes).
	inj := arch.Injection{
		Scope: arch.ScopeOutputWord,
		When:  0.4,
		Words: 1, Lines: 1, Tasks: 1,
		Flip: fault.FlipSpec{Field: floatbits.Exponent, Bits: 1},
	}
	var shown *radcrit.Report
	var detected, escaped bool
	for seed := uint64(1); seed < 60 && (!detected || !escaped); seed++ {
		rep, det := kern.RunInjectedDetailed(dev, inj, xrand.New(seed))
		if rep.Count() == 0 {
			continue
		}
		switch {
		case det.MassCheckFired && !detected:
			detected = true
			shown = rep
			fmt.Println("height-word corruption (mass violated):")
			fmt.Printf("  incorrect elements at output: %d of %d (%.1f%% of the mesh)\n",
				rep.Count(), rep.TotalElements, 100*rep.CorruptedFraction())
			fmt.Printf("  locality: %v (the paper: square errors amount to 99%%)\n", rep.Locality())
			fmt.Printf("  max mass drift: %.3g relative (threshold %.3g) -> DETECTED\n\n",
				det.MaxMassDriftRel, kern.MassCheckThresholdRel())
		case !det.MassCheckFired && !escaped && rep.SDCAbove(2):
			escaped = true
			fmt.Println("momentum-word corruption (mass conserved):")
			fmt.Printf("  incorrect elements at output: %d (%d above 2%%)\n",
				rep.Count(), rep.Filter(2).Count())
			fmt.Printf("  max mass drift: %.3g relative -> ESCAPES the mass check\n\n",
				det.MaxMassDriftRel)
		}
	}
	rep := shown

	// Render the error wave as a Fig.9-style map.
	fmt.Println("error locality map (Fig. 9 style):")
	renderMap(rep, side)

	// Detector coverage over a campaign of critical SDCs.
	fmt.Println("\nmass-check coverage over a simulated campaign:")
	var stats detect.CoverageStats
	rng := xrand.New(17)
	prof := kern.Profile(dev)
	for i := 0; i < 400; i++ {
		sub := rng.Split(uint64(i))
		syn := dev.ResolveStrike(prof, fault.Strike{When: sub.Float64(), Energy: 1}, sub)
		if syn.Outcome != fault.SDC {
			continue
		}
		r, d := kern.RunInjectedDetailed(dev, syn.Injection, sub)
		if !r.SDCAbove(2) {
			continue
		}
		stats.Add(d.MassCheckFired)
	}
	fmt.Printf("  critical SDCs: %d, detected: %d -> %.0f%% coverage (paper: 82%%)\n",
		stats.Evaluated, stats.Detected, 100*stats.Coverage())
	fmt.Println("\nMomentum-only corruption conserves mass and slips past the check —")
	fmt.Println("exactly the escape that keeps coverage below 100% (§V-D).")
}

func renderMap(rep *radcrit.Report, side int) {
	const cols = 48
	rows := cols
	marked := make([][]bool, side)
	for i := range marked {
		marked[i] = make([]bool, side)
	}
	for _, m := range rep.Mismatches {
		marked[m.Coord.Y][m.Coord.X] = true
	}
	for ry := 0; ry < rows; ry++ {
		var sb strings.Builder
		for rx := 0; rx < cols; rx++ {
			hit := false
			for y := ry * side / rows; y < (ry+1)*side/rows && !hit; y++ {
				for x := rx * side / cols; x < (rx+1)*side/cols; x++ {
					if marked[y][x] {
						hit = true
						break
					}
				}
			}
			if hit {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		fmt.Printf("  %s\n", sb.String())
	}
}

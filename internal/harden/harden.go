// Package harden implements the paper's proposed future work (§VI):
// "apply selective hardening to only those procedures, variables, or
// resources whose corruption is likely to produce the observed critical
// errors."
//
// An Advisor rides a streaming campaign as a sink, attributing each
// critical SDC to its struck resource; its Advice ranks the struck
// resources by their contribution to critical (above-threshold) SDCs and
// projects the FIT reduction of hardening each cumulatively —
// the information a designer needs to decide where duplication, ECC or
// checking effort pays off.
package harden

import (
	"fmt"
	"sort"
	"strings"

	"radcrit/internal/campaign"
	"radcrit/internal/fault"
	"radcrit/internal/injector"
)

// ResourceImpact is one resource's contribution to critical SDCs.
type ResourceImpact struct {
	// Resource is the struck structure.
	Resource fault.Resource
	// CriticalSDCs is the number of above-threshold SDCs it caused.
	CriticalSDCs int
	// Share is its fraction of all critical SDCs.
	Share float64
	// CumulativeShare is the fraction removed by hardening this resource
	// and every higher-ranked one.
	CumulativeShare float64
}

// Advice is a ranked selective-hardening plan.
type Advice struct {
	Device       string
	Kernel       string
	Input        string
	ThresholdPct float64
	// TotalCriticalSDCs is the critical SDC count before hardening.
	TotalCriticalSDCs int
	// Rankings orders resources by descending criticality contribution.
	Rankings []ResourceImpact
}

// Advisor counts the critical (above-threshold) SDCs behind each struck
// resource as a campaign sink: it runs on the streaming engine beside any
// other reducer and retains no report. Not safe for concurrent use.
type Advisor struct {
	ThresholdPct float64
	// Counts is the critical SDC count per struck resource.
	Counts map[fault.Resource]int
}

// NewAdvisor returns an empty advisor under the given imprecision
// threshold (<= 0 counts every SDC as critical).
func NewAdvisor(thresholdPct float64) *Advisor {
	return &Advisor{ThresholdPct: thresholdPct, Counts: make(map[fault.Resource]int)}
}

// Consume implements campaign.Sink.
func (a *Advisor) Consume(_ int, out injector.Outcome) {
	if out.Class != fault.SDC {
		return
	}
	critical := out.Report.IsSDC()
	if a.ThresholdPct > 0 {
		critical = out.Report.SDCAbove(a.ThresholdPct)
	}
	if critical {
		a.Counts[out.Resource]++
	}
}

// Advice ranks the counted resources for the cell described by info.
func (a *Advisor) Advice(info campaign.StreamInfo) Advice {
	adv := Advice{
		Device:       info.Device,
		Kernel:       info.Kernel,
		Input:        info.Input,
		ThresholdPct: a.ThresholdPct,
	}
	for r, c := range a.Counts {
		adv.Rankings = append(adv.Rankings, ResourceImpact{Resource: r, CriticalSDCs: c})
		adv.TotalCriticalSDCs += c
	}
	sort.Slice(adv.Rankings, func(i, j int) bool {
		if adv.Rankings[i].CriticalSDCs != adv.Rankings[j].CriticalSDCs {
			return adv.Rankings[i].CriticalSDCs > adv.Rankings[j].CriticalSDCs
		}
		return adv.Rankings[i].Resource < adv.Rankings[j].Resource
	})
	cum := 0
	for i := range adv.Rankings {
		cum += adv.Rankings[i].CriticalSDCs
		if adv.TotalCriticalSDCs > 0 {
			adv.Rankings[i].Share = float64(adv.Rankings[i].CriticalSDCs) / float64(adv.TotalCriticalSDCs)
			adv.Rankings[i].CumulativeShare = float64(cum) / float64(adv.TotalCriticalSDCs)
		}
	}
	return adv
}

// TopResources returns the smallest resource set whose hardening removes
// at least the target fraction of critical SDCs.
func (a Advice) TopResources(targetFraction float64) []fault.Resource {
	var out []fault.Resource
	for _, r := range a.Rankings {
		out = append(out, r.Resource)
		if r.CumulativeShare >= targetFraction {
			break
		}
	}
	return out
}

// ProjectedCriticalSDCs returns the critical SDC count remaining after
// hardening the given resources (their silent corruptions are assumed
// detected-and-corrected, i.e. removed).
func (a Advice) ProjectedCriticalSDCs(hardened ...fault.Resource) int {
	set := make(map[fault.Resource]bool, len(hardened))
	for _, r := range hardened {
		set[r] = true
	}
	remaining := a.TotalCriticalSDCs
	for _, imp := range a.Rankings {
		if set[imp.Resource] {
			remaining -= imp.CriticalSDCs
		}
	}
	return remaining
}

// String renders the plan as a table.
func (a Advice) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "selective hardening plan for %s %s %s (filter >%.2g%%, %d critical SDCs):\n",
		a.Device, a.Kernel, a.Input, a.ThresholdPct, a.TotalCriticalSDCs)
	for i, r := range a.Rankings {
		fmt.Fprintf(&sb, "  %d. %-16s %3d critical SDCs (%5.1f%%, cumulative %5.1f%%)\n",
			i+1, r.Resource, r.CriticalSDCs, 100*r.Share, 100*r.CumulativeShare)
	}
	return sb.String()
}

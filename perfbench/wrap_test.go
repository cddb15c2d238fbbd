package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"radcrit/internal/arch"
	"radcrit/internal/campaign"
	"radcrit/internal/kernels"
	"radcrit/internal/registry"
)

// optionalKernelInterfaces are the interfaces the engine and tools look
// for on a kernel beyond kernels.Kernel.
var optionalKernelInterfaces = []reflect.Type{
	reflect.TypeOf((*kernels.Kernel)(nil)).Elem(),
	reflect.TypeOf((*kernels.BatchRunner)(nil)).Elem(),
	reflect.TypeOf((*kernels.DenseRunner)(nil)).Elem(),
}

func TestWrappersForwardEveryInterfaceOfTheBuiltins(t *testing.T) {
	tr := newTracer()
	for _, spec := range warmKernels {
		fam, params := registry.SplitSpec(spec)
		k, err := builtinKernel(fam, params, true)
		if err != nil {
			t.Fatal(err)
		}
		w := &tracedKernel{Kernel: k, tr: tr, layer: "kernels." + fam}
		for _, it := range optionalKernelInterfaces {
			if reflect.TypeOf(k).Implements(it) && !reflect.TypeOf(w).Implements(it) {
				t.Errorf("%s implements %v but its wrapper does not", spec, it)
			}
		}
	}
	device := reflect.TypeOf((*arch.Device)(nil)).Elem()
	for _, name := range deviceNames {
		d, err := builtinDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		// A device has no optional interfaces today; any method set the
		// built-in gains that an interface asks for must reach the wrapper.
		w := &tracedDevice{Device: d, tr: tr}
		if !reflect.TypeOf(w).Implements(device) {
			t.Errorf("%s wrapper is not an arch.Device", name)
		}
	}
}

// TestWrappedCellMatchesBuiltin runs one cell of every warm kernel through
// the wrappers and directly: the summaries must be identical and every
// strike must show up in the kernel and device spans.
func TestWrappedCellMatchesBuiltin(t *testing.T) {
	tr := newTracer()
	cfg := campaign.NewPlan(11, 40).WithWorkers(2).Config()
	ts := []float64{0, 2}
	for _, spec := range warmKernels {
		fam, params := registry.SplitSpec(spec)
		for _, dname := range deviceNames {
			k, err := builtinKernel(fam, params, true)
			if err != nil {
				t.Fatal(err)
			}
			d, err := builtinDevice(dname)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := campaign.RunPlanCell(context.Background(), campaign.Cell{Dev: d, Kern: k}, cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			tr.reset()
			wk := &tracedKernel{Kernel: k, tr: tr, layer: "kernels." + fam, inst: 1}
			wd := &tracedDevice{Device: d, tr: tr, layer: "arch." + dname, inst: 2}
			_, got, err := campaign.RunPlanCell(context.Background(), campaign.Cell{Dev: wd, Kern: wk}, cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(want)
			b, _ := json.Marshal(got)
			if string(a) != string(b) {
				t.Errorf("%s on %s: wrapped summary differs\n got %s\nwant %s", spec, dname, b, a)
			}
			spans, _ := tr.snapshot()
			resolves, sdc, runs := 0, 0, 0
			for _, s := range spans {
				switch s.Layer {
				case "arch." + dname:
					resolves++
					sdc += s.Flag
				case "kernels." + fam:
					runs += s.N
				}
			}
			if resolves != cfg.Strikes || runs != sdc {
				t.Errorf("%s on %s: %d resolves (want %d), %d kernel runs for %d SDC syndromes", spec, dname, resolves, cfg.Strikes, runs, sdc)
			}
		}
	}
}

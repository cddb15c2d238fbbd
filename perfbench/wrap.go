package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"radcrit/internal/arch"
	"radcrit/internal/fault"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/clamr"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/hotspot"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/metrics"
	"radcrit/internal/phi"
	"radcrit/internal/registry"
	"radcrit/internal/store"
	"radcrit/internal/xrand"
)

// span is one timed call into a layer, in nanoseconds since the tracer's
// origin. Inst ties kernel, device and registry spans to the wrapper
// instance (and so, after attribution, to a job); Key ties store spans to
// a cell. N and Flag carry the layer's counts: strikes run and strikes
// masked for a kernel batch, 1 for an SDC syndrome or a store hit, bytes
// for a store put.
type span struct {
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Inst   int    `json:"inst,omitempty"`
	Key    string `json:"key,omitempty"`
	Job    string `json:"job,omitempty"`
	Parent string `json:"parent,omitempty"`
	N      int    `json:"n,omitempty"`
	Flag   int    `json:"flag,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// instance is one wrapper built by a shadowing registry factory: a kernel
// for one plan cell, or a device for one plan.
type instance struct {
	Kernel  bool   // false: device
	Spec    string // "dgemm:256" or "k40"
	Created int64
}

// tracer keeps every span in memory; the run writes them out once at the
// end. The zero value is not usable: build it with newTracer.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	insts  []instance
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at converts a wall-clock time into the tracer's nanosecond axis.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) newInstance(in instance) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insts = append(t.insts, in)
	return len(t.insts) // ids start at 1 so 0 means "no instance"
}

// reset drops the spans recorded so far (set-up work); instances stay so
// ids remain valid.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() ([]span, []instance) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]instance(nil), t.insts...)
}

// tracedKernel times every strike entry point of a kernel and forwards it
// unchanged. It implements kernels.BatchRunner so the engine's batch path
// still reaches the wrapped kernel's batch implementation.
type tracedKernel struct {
	kernels.Kernel
	tr    *tracer
	layer string // "kernels.dgemm"
	inst  int
}

var _ kernels.BatchRunner = (*tracedKernel)(nil)

func (k *tracedKernel) record(start int64, runs, masked int) {
	k.tr.add(span{Layer: k.layer, Start: start, End: k.tr.now(), Inst: k.inst, N: runs, Flag: masked})
}

func maskedReport(r *metrics.Report) int {
	if r == nil || r.Count() == 0 {
		return 1
	}
	return 0
}

// Golden is timed as the kernel's golden-state layer: building a
// handle may run lazy golden work (LavaMD's neighbour tables, HotSpot
// and CLAMR timeline handles).
func (k *tracedKernel) Golden(dev arch.Device) kernels.GoldenState {
	t := k.tr.now()
	g := k.Kernel.Golden(dev)
	k.tr.add(span{Layer: k.layer + ".golden", Start: t, End: k.tr.now(), Inst: k.inst})
	return g
}

func (k *tracedKernel) RunInjected(dev arch.Device, inj arch.Injection, rng *xrand.RNG) *metrics.Report {
	t := k.tr.now()
	r := k.Kernel.RunInjected(dev, inj, rng)
	k.record(t, 1, maskedReport(r))
	return r
}

func (k *tracedKernel) RunInjectedOn(g kernels.GoldenState, inj arch.Injection, rng *xrand.RNG) *metrics.Report {
	t := k.tr.now()
	r := k.Kernel.RunInjectedOn(g, inj, rng)
	k.record(t, 1, maskedReport(r))
	return r
}

func (k *tracedKernel) RunInjectedPooled(g kernels.GoldenState, inj arch.Injection, rng *xrand.RNG, reports *metrics.ReportPool) *metrics.Report {
	t := k.tr.now()
	r := k.Kernel.RunInjectedPooled(g, inj, rng, reports)
	k.record(t, 1, maskedReport(r))
	return r
}

func (k *tracedKernel) RunInjectedBatch(g kernels.GoldenState, batch []kernels.BatchStrike, reports *metrics.ReportPool) {
	t := k.tr.now()
	kernels.RunBatch(k.Kernel, g, batch, reports)
	masked := 0
	for i := range batch {
		masked += maskedReport(batch[i].Report)
	}
	k.record(t, len(batch), masked)
}

// tracedDevice times ResolveStrike and forwards everything else.
type tracedDevice struct {
	arch.Device
	tr    *tracer
	layer string // "arch.k40"
	inst  int
}

func (d *tracedDevice) ResolveStrike(p arch.Profile, s fault.Strike, rng *xrand.RNG) arch.Syndrome {
	t := d.tr.now()
	syn := d.Device.ResolveStrike(p, s, rng)
	sdc := 0
	if syn.Outcome == fault.SDC {
		sdc = 1
	}
	d.tr.add(span{Layer: d.layer, Start: t, End: d.tr.now(), Inst: d.inst, Flag: sdc})
	return syn
}

// tracedBackend times the result store's reads and writes.
type tracedBackend struct {
	store.Backend
	tr *tracer
}

func (b *tracedBackend) Get(key string) ([]byte, bool) {
	t := b.tr.now()
	data, ok := b.Backend.Get(key)
	hit := 0
	if ok {
		hit = 1
	}
	b.tr.add(span{Layer: "store.get", Start: t, End: b.tr.now(), Key: key, Flag: hit})
	return data, ok
}

func (b *tracedBackend) Put(key string, data []byte) error {
	t := b.tr.now()
	err := b.Backend.Put(key, data)
	b.tr.add(span{Layer: "store.put", Start: t, End: b.tr.now(), Key: key, N: len(data)})
	return err
}

// kernelFamilies and deviceNames are the built-ins the benchmark drives.
var (
	kernelFamilies = []string{"dgemm", "lavamd", "hotspot", "clamr"}
	deviceNames    = []string{"k40", "phi"}
)

// builtinDevice constructs a built-in device exactly as the registry's
// own factory does.
func builtinDevice(name string) (arch.Device, error) {
	switch name {
	case "k40":
		return k40.New(), nil
	case "phi":
		return phi.New(), nil
	}
	return nil, fmt.Errorf("no built-in device %q", name)
}

// builtinKernel validates and, when build is set, constructs a built-in
// kernel the way the registry's own entry does: dgemm and lavamd build a
// fresh instance, hotspot and clamr go through the registry's
// per-configuration memo.
func builtinKernel(family, params string, build bool) (kernels.Kernel, error) {
	switch family {
	case "dgemm", "lavamd":
		n, err := strconv.Atoi(params)
		if err != nil {
			return nil, fmt.Errorf("%s params %q are not an integer", family, params)
		}
		if family == "dgemm" {
			if err := dgemm.Check(n); err != nil || !build {
				return nil, err
			}
			return dgemm.New(n), nil
		}
		if err := lavamd.Check(n); err != nil || !build {
			return nil, err
		}
		return lavamd.New(n), nil
	case "hotspot", "clamr":
		first, second, ok := strings.Cut(params, "x")
		a, errA := strconv.Atoi(first)
		b, errB := strconv.Atoi(second)
		if !ok || errA != nil || errB != nil {
			return nil, fmt.Errorf("%s params %q do not match AxB", family, params)
		}
		if family == "hotspot" {
			if err := hotspot.Check(a, b); err != nil || !build {
				return nil, err
			}
			return registry.HotSpot(a, b), nil
		}
		if err := clamr.Check(a, b); err != nil || !build {
			return nil, err
		}
		return registry.CLAMR(a, b), nil
	}
	return nil, fmt.Errorf("no built-in kernel %q", family)
}

// installTracing shadows the built-in registry entries with timed
// wrappers. It must run before the first plan is built: the registry
// documents that shadowing affects only campaigns started afterwards.
func installTracing(tr *tracer) {
	help := map[string]string{}
	for _, in := range registry.Kernels() {
		help[in.Name] = in.Help
	}
	for _, in := range registry.Devices() {
		help["device:"+in.Name] = in.Help
	}
	for _, fam := range kernelFamilies {
		fam := fam
		registry.RegisterKernel(fam, registry.KernelEntry{
			Help: help[fam],
			Validate: func(params string) error {
				_, err := builtinKernel(fam, params, false)
				return err
			},
			Make: func(params string) (kernels.Kernel, error) {
				t := tr.now()
				k, err := builtinKernel(fam, params, true)
				if err != nil {
					return nil, err
				}
				inst := tr.newInstance(instance{Kernel: true, Spec: fam + ":" + params, Created: t})
				tr.add(span{Layer: "registry." + fam, Start: t, End: tr.now(), Inst: inst})
				return &tracedKernel{Kernel: k, tr: tr, layer: "kernels." + fam, inst: inst}, nil
			},
		})
	}
	for _, name := range deviceNames {
		name := name
		registry.RegisterDeviceInfo(name, help["device:"+name], func() (arch.Device, error) {
			d, err := builtinDevice(name)
			if err != nil {
				return nil, err
			}
			inst := tr.newInstance(instance{Spec: name, Created: tr.now()})
			return &tracedDevice{Device: d, tr: tr, layer: "arch." + name, inst: inst}, nil
		})
	}
}

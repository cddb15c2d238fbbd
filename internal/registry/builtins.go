package registry

import (
	"fmt"
	"strconv"
	"strings"

	"radcrit/internal/arch"
	"radcrit/internal/k40"
	"radcrit/internal/kernels"
	"radcrit/internal/kernels/clamr"
	"radcrit/internal/kernels/dgemm"
	"radcrit/internal/kernels/hotspot"
	"radcrit/internal/kernels/lavamd"
	"radcrit/internal/phi"
)

// The paper's devices and kernels self-register here: "k40" and "phi"
// devices; "dgemm:N", "lavamd:G", "hotspot:SIDExITERS" and
// "clamr:SIDExSTEPS" kernel families.
func init() {
	RegisterDeviceInfo("k40", "NVIDIA Tesla K40 (Kepler) device model",
		func() (arch.Device, error) { return k40.New(), nil })
	RegisterDeviceInfo("phi", "Intel Xeon Phi 3120A (Knights Corner) device model",
		func() (arch.Device, error) { return phi.New(), nil })

	RegisterKernel("dgemm", KernelEntry{
		Help: "dense matrix multiply; params: matrix side N, e.g. dgemm:1024",
		Validate: func(params string) error {
			n, err := intParam(params, "matrix side")
			if err != nil {
				return err
			}
			return dgemm.Check(n)
		},
		Make: func(params string) (kernels.Kernel, error) {
			n, err := intParam(params, "matrix side")
			if err != nil {
				return nil, err
			}
			return cached(fmt.Sprintf("dgemm:%d", n), func() *dgemm.Kernel { return dgemm.New(n) }), nil
		},
	})
	RegisterKernel("lavamd", KernelEntry{
		Help: "LavaMD particle dynamics; params: box-grid size G, e.g. lavamd:19",
		Validate: func(params string) error {
			g, err := intParam(params, "box-grid size")
			if err != nil {
				return err
			}
			return lavamd.Check(g)
		},
		Make: func(params string) (kernels.Kernel, error) {
			g, err := intParam(params, "box-grid size")
			if err != nil {
				return nil, err
			}
			return cached(fmt.Sprintf("lavamd:%d", g), func() *lavamd.Kernel { return lavamd.New(g) }), nil
		},
	})
	RegisterKernel("hotspot", KernelEntry{
		Help: "HotSpot thermal stencil; params: SIDExITERS, e.g. hotspot:1024x400",
		Validate: func(params string) error {
			side, iters, err := pairParam(params, "SIDExITERS")
			if err != nil {
				return err
			}
			return hotspot.Check(side, iters)
		},
		Make: func(params string) (kernels.Kernel, error) {
			side, iters, err := pairParam(params, "SIDExITERS")
			if err != nil {
				return nil, err
			}
			return HotSpot(side, iters), nil
		},
	})
	RegisterKernel("clamr", KernelEntry{
		Help: "CLAMR shallow-water AMR; params: SIDExSTEPS, e.g. clamr:512x600",
		Validate: func(params string) error {
			side, steps, err := pairParam(params, "SIDExSTEPS")
			if err != nil {
				return err
			}
			return clamr.Check(side, steps)
		},
		Make: func(params string) (kernels.Kernel, error) {
			side, steps, err := pairParam(params, "SIDExSTEPS")
			if err != nil {
				return nil, err
			}
			return CLAMR(side, steps), nil
		},
	})
}

// intParam parses a single positive-integer params string.
func intParam(params, what string) (int, error) {
	if params == "" {
		return 0, fmt.Errorf("missing %s (e.g. \"dgemm:1024\")", what)
	}
	n, err := strconv.Atoi(params)
	if err != nil {
		return 0, fmt.Errorf("%s %q is not an integer", what, params)
	}
	return n, nil
}

// pairParam parses an "AxB" params string (e.g. "1024x400").
func pairParam(params, shape string) (a, b int, err error) {
	first, second, ok := strings.Cut(params, "x")
	if !ok || params == "" {
		return 0, 0, fmt.Errorf("params %q do not match %s", params, shape)
	}
	if a, err = strconv.Atoi(first); err != nil {
		return 0, 0, fmt.Errorf("params %q do not match %s", params, shape)
	}
	if b, err = strconv.Atoi(second); err != nil {
		return 0, 0, fmt.Errorf("params %q do not match %s", params, shape)
	}
	return a, b, nil
}

// HotSpot returns the cached HotSpot instance for (side, iters): presets,
// plan cells and CLI specs naming one configuration share one golden
// timeline.
func HotSpot(side, iters int) *hotspot.Kernel {
	return cached(fmt.Sprintf("hotspot:%dx%d", side, iters), func() *hotspot.Kernel { return hotspot.New(side, iters) })
}

// CLAMR returns the cached CLAMR instance for (side, steps).
func CLAMR(side, steps int) *clamr.Kernel {
	return cached(fmt.Sprintf("clamr:%dx%d", side, steps), func() *clamr.Kernel { return clamr.New(side, steps) })
}

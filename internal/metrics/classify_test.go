package metrics

import (
	"math"
	"testing"

	"radcrit/internal/grid"
)

// classifyMap is Classify as it was before the map-free rewrite, kept
// verbatim (renamed) as the reference the rewrite is pinned against
// (TestClassifyMatchesMap, FuzzClassifyMatchesMap).
func classifyMap(dims grid.Dims, coords []grid.Coord) Pattern {
	switch len(coords) {
	case 0:
		return NoPattern
	case 1:
		return Single
	}

	distinctX := distinctCount(coords, func(c grid.Coord) int { return c.X })
	distinctY := distinctCount(coords, func(c grid.Coord) int { return c.Y })
	distinctZ := distinctCount(coords, func(c grid.Coord) int { return c.Z })

	varying := 0
	for _, d := range []int{distinctX, distinctY, distinctZ} {
		if d > 1 {
			varying++
		}
	}

	switch varying {
	case 0:
		// All coordinates identical yet len > 1 cannot happen for a set of
		// distinct mismatch positions; defensively call it Single.
		return Single
	case 1:
		return Line
	}

	// Spread over 2 or 3 axes: distinguish structured (square/cubic) from
	// random scatter. A scatter is random when no axis position repeats:
	// every varying axis has as many distinct values as elements.
	n := len(coords)
	isRandom := true
	if distinctX > 1 && distinctX < n {
		isRandom = false
	}
	if distinctY > 1 && distinctY < n {
		isRandom = false
	}
	if distinctZ > 1 && distinctZ < n {
		isRandom = false
	}
	if isRandom {
		return Random
	}
	if varying == 2 {
		return Square
	}
	return Cubic
}

func distinctCount(coords []grid.Coord, axis func(grid.Coord) int) int {
	seen := make(map[int]struct{}, len(coords))
	for _, c := range coords {
		seen[axis(c)] = struct{}{}
	}
	return len(seen)
}

// coordsFromBytes decodes fuzz input into a coordinate set: three signed
// bytes per point, scaled, so small inputs are rich in duplicates and
// negative positions while large scales reach extreme values.
func coordsFromBytes(data []byte, scale int) []grid.Coord {
	coords := make([]grid.Coord, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		coords = append(coords, grid.Coord{
			X: int(int8(data[i])) * scale,
			Y: int(int8(data[i+1])) * scale,
			Z: int(int8(data[i+2])) * scale,
		})
	}
	return coords
}

var classifySeeds = []struct {
	data  []byte
	scale int
}{
	{nil, 1},
	{[]byte{1, 2, 3}, 1},                               // one point
	{[]byte{1, 2, 3, 1, 2, 3}, 1},                      // two identical points
	{[]byte{1, 2, 0, 5, 2, 0}, 1},                      // two points, a line
	{[]byte{1, 2, 0, 5, 9, 0}, -1},                     // two points, random
	{[]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0}, 1},    // square block
	{[]byte{0, 0, 0, 1, 1, 1, 0, 0, 1, 2, 2, 2}, 7},    // cubic
	{[]byte{1, 4, 2, 5, 9, 3, 12, 2, 7}, 1},            // 3D random
	{[]byte{0xff, 0x80, 0x7f, 0xfe, 0x80, 0x7f}, 1},    // negative values, a line
	{[]byte{3, 3, 3, 3, 3, 3, 4, 4, 4}, math.MaxInt64}, // duplicate plus overflow
}

// criticalReport places a mismatch at every coordinate, with relative
// errors cycling through values either side of the default threshold
// (NaN included), and returns it with the coordinates Filter(threshold)
// keeps — all of them when threshold <= 0, LocalityBreakdown's convention.
func criticalReport(coords []grid.Coord, threshold float64) (*Report, []grid.Coord) {
	errs := []float64{0.5, 3, math.NaN(), InfiniteRelErr, DefaultThresholdPct}
	rep := &Report{Dims: dims3D, TotalElements: dims3D.Len()}
	var kept []grid.Coord
	for i, p := range coords {
		e := errs[i%len(errs)]
		rep.Mismatches = append(rep.Mismatches, Mismatch{Coord: p, RelErrPct: e})
		if threshold <= 0 || e > threshold {
			kept = append(kept, p)
		}
	}
	return rep, kept
}

// checkClassify compares Classify and a reused Classifier's Locality
// (unfiltered and at the default threshold) against the map reference.
func checkClassify(t *testing.T, c *Classifier, coords []grid.Coord) {
	t.Helper()
	if got, want := Classify(dims3D, coords), classifyMap(dims3D, coords); got != want {
		t.Errorf("Classify(%v) = %v, map reference = %v", coords, got, want)
	}
	for _, th := range []float64{0, DefaultThresholdPct} {
		rep, kept := criticalReport(coords, th)
		want := classifyMap(dims3D, kept)
		if got := c.Locality(rep, th); got != want {
			t.Errorf("Locality(%v, %v) = %v, map reference = %v", coords, th, got, want)
		}
		if th > 0 {
			if got := rep.Filter(th).Locality(); got != want {
				t.Errorf("Filter(%v).Locality() = %v, map reference = %v", th, got, want)
			}
		}
	}
}

func TestClassifyMatchesMap(t *testing.T) {
	var c Classifier
	for _, s := range classifySeeds {
		checkClassify(t, &c, coordsFromBytes(s.data, s.scale))
	}
}

// FuzzClassifyMatchesMap pins the map-free classifier against the frozen
// map-based one over arbitrary coordinate sets, through Classify and
// through a reused Classifier's Locality on reports filtered and not, and
// checks coords is left untouched.
func FuzzClassifyMatchesMap(f *testing.F) {
	for _, s := range classifySeeds {
		f.Add(s.data, s.scale)
	}
	var c Classifier
	f.Fuzz(func(t *testing.T, data []byte, scale int) {
		coords := coordsFromBytes(data, scale)
		before := append([]grid.Coord(nil), coords...)
		checkClassify(t, &c, coords)
		for i := range coords {
			if coords[i] != before[i] {
				t.Fatalf("Classify reordered its input: %v -> %v", before, coords)
			}
		}
	})
}

// TestSDCAboveMatchesFilter pins SDCAbove to Filter(t).IsSDC() across the
// relative-error edge cases: NaN and infinite errors, zero and negative
// thresholds, ties at the threshold.
func TestSDCAboveMatchesFilter(t *testing.T) {
	errs := []float64{0, 1, DefaultThresholdPct, 50, InfiniteRelErr, math.Inf(1), math.NaN()}
	thresholds := []float64{-1, 0, 1, DefaultThresholdPct, 100, InfiniteRelErr, math.Inf(1), math.NaN()}
	for _, e1 := range errs {
		for _, e2 := range errs {
			rep := &Report{Mismatches: []Mismatch{{RelErrPct: e1}, {Coord: grid.Coord{X: 1}, RelErrPct: e2}}}
			for _, th := range thresholds {
				if got, want := rep.SDCAbove(th), rep.Filter(th).IsSDC(); got != want {
					t.Errorf("errs (%v, %v) threshold %v: SDCAbove = %v, Filter.IsSDC = %v", e1, e2, th, got, want)
				}
			}
		}
	}
	if (&Report{}).SDCAbove(-1) {
		t.Error("empty report is an SDC")
	}
}

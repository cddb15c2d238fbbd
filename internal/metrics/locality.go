package metrics

import (
	"slices"

	"radcrit/internal/grid"
)

// Pattern is the spatial-locality class of a set of corrupted elements
// (paper §III). "When several elements are corrupted, but they do not share
// the same position in one of the axis, they are tagged as random errors.
// When the corrupted elements share one, two, or three dimensions of the
// axis we classify them as line, square, or cubic respectively."
type Pattern int

const (
	// NoPattern means no corrupted elements (masked execution).
	NoPattern Pattern = iota
	// Single is exactly one corrupted element.
	Single
	// Line is multiple corrupted elements varying along exactly one axis.
	Line
	// Square is multiple corrupted elements spreading over two axes.
	Square
	// Cubic is multiple corrupted elements spreading over three axes.
	Cubic
	// Random is multiple corrupted elements where no two elements share a
	// position on any axis — an unstructured scatter.
	Random
)

// String returns the pattern name as used in the paper's figures.
func (p Pattern) String() string {
	switch p {
	case NoPattern:
		return "none"
	case Single:
		return "single"
	case Line:
		return "line"
	case Square:
		return "square"
	case Cubic:
		return "cubic"
	case Random:
		return "random"
	default:
		return "unknown"
	}
}

// Patterns lists all error-producing patterns in figure order.
var Patterns = []Pattern{Cubic, Square, Line, Single, Random}

// Classify returns the spatial-locality class of coords inside an output of
// shape dims.
//
// The decision procedure, matching the paper's prose:
//
//   - 0 elements → NoPattern; 1 element → Single.
//   - If the elements vary along exactly one axis they form a Line.
//   - Otherwise, if no two elements share a coordinate on any varying axis,
//     the scatter is Random.
//   - Otherwise the elements share axis positions while spreading over two
//     (Square) or three (Cubic) axes.
//
// coords is not modified.
func Classify(dims grid.Dims, coords []grid.Coord) Pattern {
	var varies [3]bool
	for _, p := range coords {
		varies = spread(varies, coords[0], p)
	}
	var c Classifier
	return c.decide(len(coords), varies, func(axis int, vals []int) []int {
		for _, p := range coords {
			vals = append(vals, axisOf(p, axis))
		}
		return vals
	})
}

// Classifier classifies the critical mismatches of one report after
// another, reusing its scratch: once its buffer has grown to the largest
// set seen it allocates nothing. The zero value is ready to use. Not safe
// for concurrent use.
type Classifier struct {
	vals []int
}

// Locality returns the spatial pattern of r's mismatches whose relative
// error exceeds thresholdPct, or of all of them when thresholdPct <= 0 —
// r.Filter(thresholdPct).Locality() or r.Locality() respectively, the
// convention of the campaign's locality breakdowns — without building
// the filtered report or copying a coordinate. NoPattern means no
// mismatch survives the filter.
func (c *Classifier) Locality(r *Report, thresholdPct float64) Pattern {
	ms := r.Mismatches
	keep := func(m *Mismatch) bool { return thresholdPct <= 0 || m.RelErrPct > thresholdPct }
	n, varies := 0, [3]bool{}
	var first grid.Coord
	for i := range ms {
		if !keep(&ms[i]) {
			continue
		}
		if n == 0 {
			first = ms[i].Coord
		}
		varies = spread(varies, first, ms[i].Coord)
		n++
	}
	return c.decide(n, varies, func(axis int, vals []int) []int {
		for i := range ms {
			if keep(&ms[i]) {
				vals = append(vals, axisOf(ms[i].Coord, axis))
			}
		}
		return vals
	})
}

// spread marks the axes on which p differs from first. An axis varies
// when it holds more than one distinct value.
func spread(varies [3]bool, first, p grid.Coord) [3]bool {
	return [3]bool{varies[0] || p.X != first.X, varies[1] || p.Y != first.Y, varies[2] || p.Z != first.Z}
}

func axisOf(p grid.Coord, axis int) int {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	}
	return p.Z
}

// decide is the classification shared by Classify and Locality, over a
// set of n elements that varies on the marked axes. fill appends the
// elements' values on one axis (0, 1, 2 = X, Y, Z) to vals; it only runs
// when the set spreads over two or more axes, into the reused buffer.
func (c *Classifier) decide(n int, varies [3]bool, fill func(axis int, vals []int) []int) Pattern {
	switch n {
	case 0:
		return NoPattern
	case 1:
		return Single
	}
	varying := 0
	for _, v := range varies {
		if v {
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
	for axis, v := range varies {
		if !v {
			continue
		}
		vals := fill(axis, c.vals[:0])
		c.vals = vals
		slices.Sort(vals)
		for i := 1; i < len(vals); i++ {
			if vals[i] == vals[i-1] {
				if varying == 2 {
					return Square
				}
				return Cubic
			}
		}
	}
	return Random
}

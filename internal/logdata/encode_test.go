package logdata

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"radcrit/internal/fault"
	"radcrit/internal/grid"
	"radcrit/internal/metrics"
)

// writeEventFmt is writeEvent as it was before the in-place strconv
// encoder, kept verbatim as the byte-level reference the encoder is
// pinned against (TestWriteEventMatchesFmt, FuzzWriteEventMatchesFmt).
func writeEventFmt(bw *bufio.Writer, e Event) {
	switch e.Class {
	case fault.SDC:
		fmt.Fprintf(bw, "#SDC exec:%d resource:%s scope:%s count:%d\n",
			e.Exec, field(e.Resource), field(e.Scope), len(e.Mismatches))
		for _, m := range e.Mismatches {
			fmt.Fprintf(bw, "#ERR x:%d y:%d z:%d read:%s expected:%s\n",
				m.Coord.X, m.Coord.Y, m.Coord.Z,
				strconv.FormatFloat(m.Read, 'x', -1, 64),
				strconv.FormatFloat(m.Expected, 'x', -1, 64))
		}
	case fault.Crash:
		fmt.Fprintf(bw, "#CRASH exec:%d resource:%s\n", e.Exec, field(e.Resource))
	case fault.Hang:
		fmt.Fprintf(bw, "#HANG exec:%d resource:%s\n", e.Exec, field(e.Resource))
	}
}

// encodeCase is one encoder input in fuzz-argument form. Floats travel
// as bit patterns so NaN payloads and -0 survive; reps repeats the
// mismatch (with shifted coordinates) so long events cross the writer's
// buffer boundary and exercise the flush-before-append path.
type encodeCase struct {
	exec            int
	resource, scope string
	x, y, z         int
	read, expected  uint64
	reps            uint16
}

func (c encodeCase) events() []Event {
	ms := make([]metrics.Mismatch, 0, int(c.reps)+1)
	for i := 0; i <= int(c.reps); i++ {
		ms = append(ms, metrics.Mismatch{
			Coord:    grid.Coord{X: c.x + i, Y: c.y - i, Z: c.z ^ i},
			Read:     math.Float64frombits(c.read + uint64(i)),
			Expected: math.Float64frombits(c.expected),
		})
	}
	return []Event{
		{Class: fault.SDC, Exec: c.exec, Resource: c.resource, Scope: c.scope, Mismatches: ms},
		{Class: fault.SDC, Exec: c.exec, Resource: c.resource, Scope: c.scope},
		{Class: fault.Crash, Exec: c.exec, Resource: c.resource},
		{Class: fault.Hang, Exec: -c.exec, Resource: c.scope},
	}
}

var encodeSeeds = []encodeCase{
	{exec: 3, resource: "register-file", scope: "accum-term", x: 1, y: 2, z: 0,
		read: math.Float64bits(1.5), expected: math.Float64bits(1), reps: 1},
	{exec: 0, resource: "", scope: "", read: 0x7ff8000000000001, expected: 0x7ff0000000000001}, // NaN payloads
	{exec: 1, resource: "l2 cache", scope: " lead and trail ",
		read: 1 << 63, expected: 0}, // -0 against +0
	{exec: 7, resource: "fpu", scope: "-", read: math.Float64bits(math.Inf(1)),
		expected: math.Float64bits(math.Inf(-1))},
	{exec: 9, resource: "sfu", scope: "x", read: 1, expected: 0x000fffffffffffff}, // subnormals
	{exec: math.MaxInt, resource: "a b  c", scope: "_", x: math.MinInt, y: math.MaxInt, z: -1,
		read: math.Float64bits(-math.MaxFloat64), expected: math.Float64bits(math.SmallestNonzeroFloat64)},
	{exec: math.MinInt, resource: "r", scope: "s", x: -123456789, y: 987654321, z: 42,
		read: math.Float64bits(-0x1.fffffffffffffp-1022), expected: math.Float64bits(1e308), reps: 200},
	{exec: 12, resource: "shared-memory", scope: "row", read: math.Float64bits(3.25),
		expected: math.Float64bits(-3.25), reps: 1000},
}

// encodeBoth encodes events through writeEvent and the frozen reference,
// each into its own default-sized writer, and returns both byte streams.
func encodeBoth(events []Event) (got, want []byte) {
	var g, w bytes.Buffer
	gw, ww := bufio.NewWriter(&g), bufio.NewWriter(&w)
	for _, e := range events {
		writeEvent(gw, e)
		writeEventFmt(ww, e)
	}
	gw.Flush()
	ww.Flush()
	return g.Bytes(), w.Bytes()
}

func TestWriteEventMatchesFmt(t *testing.T) {
	for i, c := range encodeSeeds {
		got, want := encodeBoth(c.events())
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: encoder output differs from fmt reference\ngot:  %.300q\nwant: %.300q", i, got, want)
		}
	}
}

// FuzzWriteEventMatchesFmt pins the in-place encoder byte for byte
// against the fmt-based reference over arbitrary coordinates, float bit
// patterns and free-text fields.
func FuzzWriteEventMatchesFmt(f *testing.F) {
	for _, c := range encodeSeeds {
		f.Add(c.exec, c.resource, c.scope, c.x, c.y, c.z, c.read, c.expected, c.reps)
	}
	f.Fuzz(func(t *testing.T, exec int, resource, scope string, x, y, z int, read, expected uint64, reps uint16) {
		c := encodeCase{exec, resource, scope, x, y, z, read, expected, reps % 2048}
		got, want := encodeBoth(c.events())
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder output differs from fmt reference for %+v\ngot:  %.300q\nwant: %.300q", c, got, want)
		}
	})
}

// TestWriteEventAllocs gates the encoder's zero-allocation contract: a
// warmed StreamWriter logs a 1,000-mismatch SDC without allocating.
func TestWriteEventAllocs(t *testing.T) {
	sw, err := NewStreamWriter(io.Discard, fuzzSampleLog())
	if err != nil {
		t.Fatal(err)
	}
	ev := encodeSeeds[len(encodeSeeds)-1].events()[0]
	ev.Mismatches = ev.Mismatches[:1000]
	if err := sw.WriteEvent(ev); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { sw.WriteEvent(ev) }); n != 0 {
		t.Fatalf("WriteEvent of a %d-mismatch SDC allocated %v times per call, want 0", len(ev.Mismatches), n)
	}
}

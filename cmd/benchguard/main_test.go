package main

import (
	"strings"
	"testing"
)

// baseline returns a two-benchmark baseline recorded on a host with the
// given core count.
func baseline(cores int) baselineFile {
	var b baselineFile
	b.Host.Cores = cores
	b.StrikeHotPath.Benchmarks = map[string]struct {
		NsOp     float64 `json:"ns_op"`
		AllocsOp float64 `json:"allocs_op"`
	}{
		"StrikeDGEMM":   {NsOp: 1000, AllocsOp: 4},
		"InjectedDGEMM": {NsOp: 2000, AllocsOp: 10},
	}
	return b
}

func mustParse(t *testing.T, out string) map[string]benchResult {
	t.Helper()
	got, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestGuard(t *testing.T) {
	const header = "goos: linux\ngoarch: amd64\npkg: radcrit\n"
	cases := []struct {
		name string
		// baseCores is the baseline host's core count; the guard runs as
		// if on a 2-core host.
		baseCores int
		out       string
		// wantFail lists a substring per expected failure, in baseline
		// name order; nil means the run must pass.
		wantFail []string
		wantNote string
	}{
		{
			name:      "within budget",
			baseCores: 2,
			out: header +
				"BenchmarkStrikeDGEMM-2   300   1400 ns/op   128 B/op   7 allocs/op\n" +
				"BenchmarkInjectedDGEMM-2 300   2900 ns/op   512 B/op  20 allocs/op\nPASS\n",
			wantNote: "ok StrikeDGEMM",
		},
		{
			name:      "allocs above max-factor",
			baseCores: 2,
			out: "BenchmarkStrikeDGEMM-2   300   900 ns/op   128 B/op   9 allocs/op\n" +
				"BenchmarkInjectedDGEMM-2 300  1900 ns/op   512 B/op  10 allocs/op\n",
			wantFail: []string{"StrikeDGEMM: 9.0 allocs/op exceeds 8.0"},
		},
		{
			name:      "missing baselined benchmark",
			baseCores: 2,
			out:       "BenchmarkStrikeDGEMM-2   300   900 ns/op   128 B/op   4 allocs/op\n",
			wantFail:  []string{"InjectedDGEMM: baselined benchmark missing"},
		},
		{
			name:      "missing allocs/op",
			baseCores: 2,
			out: "BenchmarkStrikeDGEMM-2   300   900 ns/op\n" +
				"BenchmarkInjectedDGEMM-2 300  1900 ns/op\n",
			wantFail: []string{
				"InjectedDGEMM: no allocs/op in bench output",
				"StrikeDGEMM: no allocs/op in bench output",
			},
		},
		{
			name:      "ns guard skipped when core counts differ",
			baseCores: 1,
			out: "BenchmarkStrikeDGEMM-2   300   9000 ns/op   128 B/op   4 allocs/op\n" +
				"BenchmarkInjectedDGEMM-2 300  9000 ns/op   512 B/op  10 allocs/op\n",
			wantNote: "host has 2 cores, baseline recorded on 1 — ns/op guard skipped",
		},
		{
			name:      "ns guard enforced when core counts match",
			baseCores: 2,
			out: "BenchmarkStrikeDGEMM-2   300   9000 ns/op   128 B/op   4 allocs/op\n" +
				"BenchmarkInjectedDGEMM-2 300  2900 ns/op   512 B/op  10 allocs/op\n",
			wantFail: []string{"StrikeDGEMM: 9000 ns/op exceeds 1500"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			notes, failures := guard(baseline(c.baseCores), mustParse(t, c.out), 2, 1.5, 2)
			if len(failures) != len(c.wantFail) {
				t.Fatalf("failures = %q, want %d matching %q", failures, len(c.wantFail), c.wantFail)
			}
			for i, want := range c.wantFail {
				if !strings.Contains(failures[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, failures[i], want)
				}
			}
			if c.wantNote != "" && !strings.Contains(strings.Join(notes, "\n"), c.wantNote) {
				t.Errorf("notes %q lack %q", notes, c.wantNote)
			}
		})
	}
}

func TestBuildMulticoreRecord(t *testing.T) {
	got := mustParse(t, ""+
		"BenchmarkCampaignMulticore/DGEMM/workers=1-2   1   700000000 ns/op\n"+
		"BenchmarkCampaignMulticore/DGEMM/workers=2-2   1   430000000 ns/op\n"+
		"BenchmarkCampaignMulticore/LavaMD/workers=1-2  1   430000000 ns/op\n"+
		"BenchmarkCampaignMulticore/LavaMD/workers=2-2  1   450000000 ns/op\n"+
		"BenchmarkStrikeDGEMM-2   300   900 ns/op\n")
	rec, err := buildMulticoreRecord(got, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Cells) != 2 {
		t.Fatalf("record has %d cells, want DGEMM and LavaMD", len(rec.Cells))
	}
	// 700/430 = 1.6279...: rounded to two decimals.
	if s := rec.Cells["DGEMM"].SpeedupX; s != 1.63 {
		t.Errorf("DGEMM speedup = %v, want 1.63", s)
	}
	// More workers ran slower: the best time is the serial one.
	if s := rec.Cells["LavaMD"].SpeedupX; s != 1 {
		t.Errorf("LavaMD speedup = %v, want 1", s)
	}
	if rec.Cells["DGEMM"].NsOpByWorkers["2"] != 430000000 {
		t.Errorf("DGEMM workers=2 ns/op = %v", rec.Cells["DGEMM"].NsOpByWorkers["2"])
	}
	if rec.Host.Cores != 2 || rec.Note != "recorded on a 2-core host" {
		t.Errorf("host stamp = %+v, note %q", rec.Host, rec.Note)
	}
	if _, err := buildMulticoreRecord(mustParse(t, "BenchmarkStrikeDGEMM-2 300 900 ns/op\n"), 2); err == nil {
		t.Error("a run without multicore results produced a record")
	}
}

func TestGuardShapes(t *testing.T) {
	record := map[string]map[string]float64{
		"Figure2":           {"SDCs/op": 341},
		"Figure9":           {"wave-coverage-%": 27.6},
		"AblationScheduler": {"growth-with-strain-x": 9.446, "growth-without-x": 1},
	}
	const (
		figure2   = "BenchmarkFigure2-2   1   3210495907 ns/op   341.0 SDCs/op\n"
		figure9   = "BenchmarkFigure9-2   1   56873089 ns/op   27.60 wave-coverage-%\n"
		scheduler = "BenchmarkAblationScheduler-2 1 41840 ns/op   9.446 growth-with-strain-x   1.000 growth-without-x\n"
		engine    = "BenchmarkCampaignEngineSerial-2 1 1582035167 ns/op\n"
	)
	cases := []struct {
		name     string
		out      string
		wantFail []string
	}{
		{
			name: "every metric matches at printed precision",
			out:  figure2 + figure9 + scheduler + engine,
		},
		{
			name:     "drifted value",
			out:      figure2 + "BenchmarkFigure9-2   1   56873089 ns/op   27.61 wave-coverage-%\n" + scheduler,
			wantFail: []string{"Figure9: wave-coverage-% printed 27.61, recorded 27.60"},
		},
		{
			name:     "drift below the record's own digits",
			out:      figure2 + figure9 + "BenchmarkAblationScheduler-2 1 41840 ns/op   9.446 growth-with-strain-x   1.001 growth-without-x\n",
			wantFail: []string{"AblationScheduler: growth-without-x printed 1.001, recorded 1.000"},
		},
		{
			name:     "recorded benchmark missing",
			out:      figure2 + scheduler,
			wantFail: []string{"Figure9: recorded benchmark missing"},
		},
		{
			name:     "recorded metric missing",
			out:      figure2 + figure9 + "BenchmarkAblationScheduler-2 1 41840 ns/op   9.446 growth-with-strain-x\n",
			wantFail: []string{"AblationScheduler: recorded metric growth-without-x missing"},
		},
		{
			name:     "metric without a record",
			out:      figure2 + figure9 + scheduler + "BenchmarkFigure3-2 1 2491381119 ns/op   28.57 K40-filter-gain-%\n",
			wantFail: []string{"Figure3: metric K40-filter-gain-% has no shape_statistics record"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, failures := guardShapes(record, mustParse(t, c.out))
			if len(failures) != len(c.wantFail) {
				t.Fatalf("failures = %q, want %d matching %q", failures, len(c.wantFail), c.wantFail)
			}
			for i, want := range c.wantFail {
				if !strings.Contains(failures[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, failures[i], want)
				}
			}
		})
	}
}

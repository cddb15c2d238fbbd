package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"radcrit/internal/campaign"
)

// runMainEnv names the environment variable that turns the test binary
// into the figures command: TestMain then runs main with the
// space-separated arguments it holds, so a test can capture the exact
// bytes the command writes to stdout.
const runMainEnv = "FIGURES_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"figures"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFigures re-executes the test binary as the figures command and
// returns its stdout.
func runFigures(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("figures %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// TestGoldenOutput pins the rendered campaign artifacts byte for byte:
// every figure and statistic built from campaign cells (F2-F8, S1-S3,
// X1) at a reduced strike budget, against output recorded before the
// figure engines were merged.
func TestGoldenOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_60.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := runFigures(t, "-strikes", "60", "-only", "F2,F3,F4,F5,F6,F7,F8,S1,S2,S3,X1")
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from testdata/golden_60.txt at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/golden_60.txt has %d", len(gl), len(wl))
	}
}

// TestSharedCellsRunOnce pins the single pass: F2, F3, S1, S2 and S3 all
// read the DGEMM sweeps (S1 the whole device x kernel x input matrix),
// yet every distinct (device, kernel, input) cell enters the pass — and
// so is evaluated — exactly once per invocation.
func TestSharedCellsRunOnce(t *testing.T) {
	ids := map[string]bool{"F2": true, "F3": true, "S1": true, "S2": true, "S3": true}
	sel := func(id string) bool { return ids[id] }
	set := selectArtifacts(io.Discard, sel, campaign.TestScale, campaign.DefaultConfig(1, 10), 0)
	if len(set.renders) != len(ids) {
		t.Fatalf("%d renderers for %d selected artifacts", len(set.renders), len(ids))
	}
	seen := map[string]int{}
	for _, c := range set.pass.Cells() {
		seen[c.Dev.ShortName()+"/"+c.Kern.Name()+"/"+c.Kern.InputLabel()]++
	}
	for cell, n := range seen {
		if n != 1 {
			t.Errorf("cell %s is evaluated %d times", cell, n)
		}
	}
	if want := len(campaign.AllCells(campaign.TestScale)); len(seen) != want {
		t.Errorf("pass covers %d distinct cells, want the %d of the matrix", len(seen), want)
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv names the environment variable that turns the test binary
// into the beamsim command: TestMain then runs main with the
// space-separated arguments it holds, so a test can capture exactly what
// the command writes and how it exits.
const runMainEnv = "BEAMSIM_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"beamsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBeamsim re-executes the test binary as beamsim and returns its
// stderr and exit code.
func runBeamsim(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stderr.Bytes(), cmd.ProcessState.ExitCode()
}

// requireGolden fails unless got is byte-identical to the file at path.
func requireGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// fixedArgs is a small single-cell fixed-budget run whose outcomes
// include SDCs, crashes and hangs, so its log exercises every event kind.
var fixedArgs = []string{"-device", "k40", "-kernel", "dgemm:128", "-strikes", "100", "-seed", "2"}

// TestFixedLogGolden pins a fixed-budget run's -o log byte for byte (as
// a sha256: the log runs to megabytes of hex floats) and its stderr
// summary verbatim.
func TestFixedLogGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.log")
	stderr, code := runBeamsim(t, append(fixedArgs, "-o", path)...)
	if code != 0 {
		t.Fatalf("beamsim exited %d:\n%s", code, stderr)
	}
	requireGolden(t, "testdata/fixed_stderr.txt", stderr)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"\n#SDC ", "\n#CRASH ", "\n#HANG ", "\n#END "} {
		if !bytes.Contains(log, []byte(tag)) {
			t.Fatalf("log has no %q line", strings.TrimSpace(tag))
		}
	}
	sum := sha256.Sum256(log)
	requireGolden(t, "testdata/fixed_log.sha256", []byte(hex.EncodeToString(sum[:])+"\n"))
}

// TestPlanStderrGolden pins the per-cell summaries of a two-cell plan.
func TestPlanStderrGolden(t *testing.T) {
	stderr, code := runBeamsim(t, "-plan", "../../examples/plans/smoke.json")
	if code != 0 {
		t.Fatalf("beamsim exited %d:\n%s", code, stderr)
	}
	requireGolden(t, "testdata/smoke_stderr.txt", stderr)
}

package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv names the environment variable that turns the test binary
// into the quickstart command: TestMain then runs main with the
// space-separated arguments it holds, so a test can capture the exact
// bytes the command writes to stdout.
const runMainEnv = "QUICKSTART_TEST_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"quickstart"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run re-executes the test binary as quickstart and returns its stdout.
func run(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join(args, " "))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("quickstart %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// TestStdoutGolden pins the example's whole report byte for byte.
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t); !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from testdata/stdout.txt:\n got: %s\nwant: %s", got, want)
	}
}

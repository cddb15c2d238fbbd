package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestUnwritableLogFailsBeforeStrikes pins that -o is created before any
// cell runs: a path in a missing directory exits non-zero without a
// single cell summary, so no campaign is spent on a log that cannot be
// written.
func TestUnwritableLogFailsBeforeStrikes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "campaign.log")
	stderr, code := runBeamsim(t, append(fixedArgs, "-o", path)...)
	if code == 0 {
		t.Fatal("beamsim succeeded with an unwritable -o path")
	}
	if !strings.Contains(string(stderr), "create log") {
		t.Fatalf("stderr does not name the log creation failure:\n%s", stderr)
	}
	if strings.Contains(string(stderr), "campaign:") {
		t.Fatalf("a cell ran before the log was created:\n%s", stderr)
	}
}

// Command perfbench is radcrit's end-to-end benchmark. It drives an
// in-process radcritd stack (service.Manager behind api.Server, telemetry
// on, a disk store in a fresh state directory, a tenants registry) over
// loopback HTTP through api.Client, on one of three workloads:
//
//	matrix-cold   a fresh process submits one paper-matrix job at large
//	              inputs, so golden-state work dominates
//	matrix-warm   back-to-back paper-matrix jobs at strike-bench sizes on
//	              a prewarmed daemon, so strikes dominate
//	service-mix   an open loop of small jobs from two tenants, half of
//	              them store hits, so the API, queue and store show
//
// Every run checks the outputs, and the last line of standard output is
// one JSON object with the end-to-end metrics, or with -trace 1 the
// per-layer metrics taken by timing calls into each layer from this
// package. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload matrix-warm --seed 1 --seconds 25 --trace 0
//
// Each measured daemon runs in its own child process of this binary, so
// no registry memo, golden table or store entry outlives a run.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

//go:embed record.json
var recordJSON []byte

// record is the benchmark's recorded reference: result digests of each
// workload's default seed and the service-mix arrival rate.
type record struct {
	DefaultSeed uint64            `json:"default_seed"`
	Digests     map[string]string `json:"digests"`
	MixRate     float64           `json:"service_mix_rate_jobs_per_s"`
}

func loadRecord() (record, error) {
	var r record
	if err := json.Unmarshal(recordJSON, &r); err != nil {
		return r, fmt.Errorf("record.json: %w", err)
	}
	return r, nil
}

func main() {
	workload := flag.String("workload", "", "matrix-cold, matrix-warm or service-mix")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	child := flag.String("child", "", "internal: run one benchmark process in this role")
	state := flag.String("state", "", "internal: the child's state directory")
	spawned := flag.Int64("spawned", 0, "internal: parent's clock when the child was started (unix ns)")
	traceOut := flag.String("trace-out", "", "internal: where a traced child writes its spans")
	index := flag.Int("index", 0, "internal: which matrix-cold process of the run the child is")
	flag.Parse()

	rec, err := loadRecord()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		err := runChild(childOpts{Role: *child, Seed: *seed, Seconds: *seconds, Traced: *trace == 1,
			State: *state, Spawned: time.Unix(0, *spawned), TraceOut: *traceOut, Rate: rec.MixRate, Index: *index})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	switch *workload {
	case "matrix-cold", "matrix-warm", "service-mix":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want matrix-cold, matrix-warm or service-mix)\n", *workload)
		os.Exit(2)
	}
	os.Exit(runParent(rec, *workload, *seed, *seconds, *trace == 1))
}

// Command benchguard gates CI on the strike hot path's performance
// budgets: it reads `go test -bench -benchmem` output on stdin and
// compares each benchmark against the baselines recorded in
// BENCH_campaign.json (strike_hot_path.benchmarks.<name>).
//
// Two budgets are enforced:
//
//   - allocs/op against allocs_op, failing past -max-factor (default 2)
//     times baseline. Allocation counts are deterministic, so this guard
//     runs on any host.
//   - ns/op against ns_op, failing past -ns-factor (default 1.5) times
//     baseline. Wall time is only comparable on hardware resembling the
//     baseline host, so the ns guard is skipped (with a note) whenever
//     runtime.NumCPU() differs from the recorded host.cores.
//
// A baselined benchmark missing from the run, or reporting no allocs/op
// (a run without -benchmem), always fails. Beyond the standard library
// the tool depends only on the shared cli version helper, so the CI job
// stays a plain `go run ./cmd/benchguard`.
//
//	go test -bench='BenchmarkStrike|BenchmarkInjected' -benchmem -run='^$' . |
//	    go run ./cmd/benchguard -baseline BENCH_campaign.json
//
// -shapes guards behaviour instead, on any host: every custom
// b.ReportMetric in the run must print exactly the value recorded in
// shape_statistics.benchmarks.<name>.<unit>, at the printed precision
// (see guardShapes; CI feeds it the artifact and ablation benches).
//
// -emit-multicore switches the tool into a record emitter instead of a
// guard: it reads `go test -bench=BenchmarkCampaignMulticore` output and
// prints the `multicore` JSON record for BENCH_campaign.json — per-cell
// ns/op by worker count plus the parallel speedup at the highest worker
// count, stamped with this host's shape so a 1-core record can never be
// mistaken for a scaling demonstration.
//
//	go test -bench=BenchmarkCampaignMulticore -benchtime=1x -run='^$' . |
//	    go run ./cmd/benchguard -emit-multicore
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"radcrit/internal/cli"
)

// baselineFile mirrors the slice of BENCH_campaign.json the guard reads.
type baselineFile struct {
	Host struct {
		Cores int `json:"cores"`
	} `json:"host"`
	StrikeHotPath struct {
		Benchmarks map[string]struct {
			NsOp     float64 `json:"ns_op"`
			AllocsOp float64 `json:"allocs_op"`
		} `json:"benchmarks"`
	} `json:"strike_hot_path"`
	ShapeStatistics struct {
		// Benchmarks maps a benchmark name to its custom metrics' recorded
		// values, keyed by unit.
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	} `json:"shape_statistics"`
}

// benchResult is one parsed benchmark line.
type benchResult struct {
	NsOp      float64
	AllocsOp  float64
	HasAllocs bool
	// Metrics holds every custom b.ReportMetric value as printed, keyed
	// by unit.
	Metrics map[string]string
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_campaign.json", "JSON `file` holding strike_hot_path.benchmarks baselines")
	maxFactor := flag.Float64("max-factor", 2, "fail when allocs/op exceeds factor x baseline")
	nsFactor := flag.Float64("ns-factor", 1.5, "fail when ns/op exceeds factor x baseline (skipped when host cores differ from baseline)")
	emitMulticore := flag.Bool("emit-multicore", false, "emit the BENCH_campaign.json multicore record from BenchmarkCampaignMulticore output instead of guarding")
	shapes := flag.Bool("shapes", false, "guard the custom bench metrics against shape_statistics instead of the strike hot path budgets")
	showVersion := cli.VersionFlag(flag.CommandLine)
	flag.Parse()
	cli.ExitIfVersion(*showVersion)

	got, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fatal("read bench output: %v", err)
	}

	if *emitMulticore {
		rec, err := buildMulticoreRecord(got, runtime.NumCPU())
		if err != nil {
			fatal("%v", err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			fatal("encode multicore record: %v", err)
		}
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("read baseline: %v", err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parse baseline %s: %v", *baselinePath, err)
	}
	var notes, failures []string
	switch {
	case *shapes:
		if len(base.ShapeStatistics.Benchmarks) == 0 {
			fatal("%s has no shape_statistics.benchmarks section", *baselinePath)
		}
		notes, failures = guardShapes(base.ShapeStatistics.Benchmarks, got)
	case len(base.StrikeHotPath.Benchmarks) == 0:
		fatal("%s has no strike_hot_path.benchmarks section", *baselinePath)
	default:
		notes, failures = guard(base, got, *maxFactor, *nsFactor, runtime.NumCPU())
	}
	for _, n := range notes {
		fmt.Println("benchguard: " + n)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchguard: FAIL "+f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// guard checks every baselined benchmark against the parsed run on a
// host with the given core count. It returns the progress notes (one
// "ok" line per passing benchmark, plus the ns/op skip note when the
// core counts differ) and one line per failure; the run is within budget
// exactly when failures is empty. A baselined benchmark that is missing
// from the run, or that reports no allocs/op (a run without -benchmem),
// fails: otherwise the allocation gate could never trip.
func guard(base baselineFile, got map[string]benchResult, maxFactor, nsFactor float64, cores int) (notes, failures []string) {
	guardNs := base.Host.Cores == 0 || base.Host.Cores == cores
	if !guardNs {
		notes = append(notes, fmt.Sprintf("note: host has %d cores, baseline recorded on %d — ns/op guard skipped, allocs/op still enforced",
			cores, base.Host.Cores))
	}
	for _, name := range sortedKeys(base.StrikeHotPath.Benchmarks) {
		want := base.StrikeHotPath.Benchmarks[name]
		res, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: baselined benchmark missing from bench output", name))
			continue
		}
		if !res.HasAllocs {
			failures = append(failures, fmt.Sprintf("%s: no allocs/op in bench output (run with -benchmem)", name))
			continue
		}
		allocLimit := want.AllocsOp * maxFactor
		if res.AllocsOp > allocLimit {
			failures = append(failures, fmt.Sprintf("%s: %.1f allocs/op exceeds %.1f (baseline %.1f x factor %.1f)",
				name, res.AllocsOp, allocLimit, want.AllocsOp, maxFactor))
			continue
		}
		if guardNs && want.NsOp > 0 {
			nsLimit := want.NsOp * nsFactor
			if res.NsOp > nsLimit {
				failures = append(failures, fmt.Sprintf("%s: %.0f ns/op exceeds %.0f (baseline %.0f x factor %.2f)",
					name, res.NsOp, nsLimit, want.NsOp, nsFactor))
				continue
			}
		}
		notes = append(notes, fmt.Sprintf("ok %s: %.1f allocs/op (limit %.1f), %.0f ns/op",
			name, res.AllocsOp, allocLimit, res.NsOp))
	}
	return notes, failures
}

// guardShapes checks every recorded shape statistic against the run, and
// every custom metric of the run against the record. A value matches when
// the recorded one, formatted with as many decimals as the bench output
// printed, reads the same: the printed precision is all the run tells.
func guardShapes(want map[string]map[string]float64, got map[string]benchResult) (notes, failures []string) {
	for _, name := range sortedKeys(want) {
		res, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: recorded benchmark missing from bench output", name))
			continue
		}
		for _, unit := range sortedKeys(want[name]) {
			printed, ok := res.Metrics[unit]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: recorded metric %s missing from bench output", name, unit))
				continue
			}
			decimals := 0
			if i := strings.IndexByte(printed, '.'); i >= 0 {
				decimals = len(printed) - i - 1
			}
			if rec := strconv.FormatFloat(want[name][unit], 'f', decimals, 64); rec != printed {
				failures = append(failures, fmt.Sprintf("%s: %s printed %s, recorded %s", name, unit, printed, rec))
				continue
			}
			notes = append(notes, fmt.Sprintf("ok %s: %s %s", name, printed, unit))
		}
	}
	for _, name := range sortedKeys(got) {
		for _, unit := range sortedKeys(got[name].Metrics) {
			if _, ok := want[name][unit]; !ok {
				failures = append(failures, fmt.Sprintf("%s: metric %s has no shape_statistics record", name, unit))
			}
		}
	}
	return notes, failures
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// multicoreRecord is the BENCH_campaign.json "multicore" section shape.
type multicoreRecord struct {
	Description string `json:"description"`
	Host        struct {
		Cores int    `json:"cores"`
		Go    string `json:"go"`
	} `json:"host"`
	Cells map[string]*multicoreCell `json:"cells"`
	Note  string                    `json:"note"`
}

type multicoreCell struct {
	NsOpByWorkers map[string]float64 `json:"ns_op_by_workers"`
	SpeedupX      float64            `json:"speedup_at_max_workers_x"`
}

// buildMulticoreRecord builds the multicore JSON record from
// BenchmarkCampaignMulticore/<cell>/workers=<n> results on a host with
// the given core count.
func buildMulticoreRecord(got map[string]benchResult, cores int) (*multicoreRecord, error) {
	rec := &multicoreRecord{
		Description: "Whole uncached campaign cells (campaign.RunStreaming into a TallyReducer) at worker counts {1, 2, NumCPU}. Results are bit-identical across worker counts (DESIGN.md §5); ns/op is the whole story. Regenerate with: go test -bench=BenchmarkCampaignMulticore -benchtime=1x -run='^$' . | go run ./cmd/benchguard -emit-multicore",
		Cells:       map[string]*multicoreCell{},
	}
	rec.Host.Cores = cores
	rec.Host.Go = runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
	const prefix = "CampaignMulticore/"
	for name, res := range got {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		cellName, workers, ok := strings.Cut(rest, "/workers=")
		if !ok {
			continue
		}
		cell := rec.Cells[cellName]
		if cell == nil {
			cell = &multicoreCell{NsOpByWorkers: map[string]float64{}}
			rec.Cells[cellName] = cell
		}
		cell.NsOpByWorkers[workers] = res.NsOp
	}
	if len(rec.Cells) == 0 {
		return nil, fmt.Errorf("no BenchmarkCampaignMulticore results on stdin")
	}
	for _, cell := range rec.Cells {
		base := cell.NsOpByWorkers["1"]
		best := base
		for _, ns := range cell.NsOpByWorkers {
			if ns < best {
				best = ns
			}
		}
		if base > 0 && best > 0 {
			cell.SpeedupX = round2(base / best)
		}
	}
	if rec.Host.Cores == 1 {
		rec.Note = "recorded on a 1-core host: worker counts collapse to the serial loop, so speedup ~1x is expected and honest; regenerate on a >=4-core host to demonstrate scaling"
	} else {
		rec.Note = fmt.Sprintf("recorded on a %d-core host", rec.Host.Cores)
	}
	return rec, nil
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}

// parseBenchOutput extracts ns/op, allocs/op and the custom metrics per
// benchmark from `go test -bench [-benchmem]` text. Benchmark names are
// normalised by
// stripping the "Benchmark" prefix and the -GOMAXPROCS suffix.
func parseBenchOutput(r io.Reader) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		res := out[name]
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsOp = v
			case "allocs/op":
				res.AllocsOp = v
				res.HasAllocs = true
			case "B/op", "MB/s": // the testing package's own; any other unit is a b.ReportMetric
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]string{}
				}
				res.Metrics[unit] = fields[i]
			}
		}
		out[name] = res
	}
	return out, sc.Err()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	os.Exit(1)
}

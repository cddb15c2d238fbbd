package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runBudget bounds a whole run, every child process included.
const runBudget = 170 * time.Second

// parent runs the benchmark processes of one invocation in sequence and
// aggregates what they report.
type parent struct {
	rec      record
	workload string
	seed     uint64
	seconds  float64
	work     string
	deadline time.Time
	spawned  int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runParent(rec record, workload string, seed uint64, seconds float64, traced bool) int {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	p := &parent{rec: rec, workload: workload, seed: seed, seconds: seconds,
		work:     filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		deadline: time.Now().Add(runBudget)}
	defer os.RemoveAll(p.work)
	var out output
	var problems []string
	if traced {
		out, problems, err = p.traced(filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d", workload, seed)))
	} else {
		out, problems, err = p.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, pr := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", pr)
	}
	out.Correct = len(problems) == 0 && out.Failed == 0
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %-32s %14.4f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !out.Correct {
		return 1
	}
	return 0
}

// spawn runs one benchmark process of this binary to completion.
func (p *parent) spawn(role string, index int, traced bool, traceOut string) (childResult, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	p.spawned++
	state := filepath.Join(p.work, fmt.Sprintf("state-%d", p.spawned))
	defer os.RemoveAll(state)
	ctx, cancel := context.WithDeadline(context.Background(), p.deadline)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, self, "-child", role, "-trace", trace,
		"-seed", strconv.FormatUint(p.seed, 10), "-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-state", state, "-trace-out", traceOut,
		"-index", strconv.Itoa(index), "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%s process: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s process: bad result line: %w", role, err)
	}
	return res, nil
}

// checkDigest compares a default-seed run's result digest with the
// recorded one.
func (p *parent) checkDigest(res childResult) []string {
	if p.seed != p.rec.DefaultSeed {
		return nil
	}
	if want := p.rec.Digests[p.workload]; res.Digest != want {
		return []string{fmt.Sprintf("%s seed %d: result digest %s, recorded %s", p.workload, p.seed, res.Digest, want)}
	}
	return nil
}

// untraced measures the end-to-end metrics. matrix-cold runs fresh
// processes until the window is spent (at least three); the other
// workloads set up three extra times for a steady set-up median, then
// run one measured process.
func (p *parent) untraced() (output, []string, error) {
	var measured []childResult
	var setups []float64
	if p.workload == "matrix-cold" {
		start := time.Now()
		for len(measured) < 3 || (time.Since(start).Seconds() < p.seconds && len(measured) < 12) {
			r, err := p.spawn(p.workload, len(measured), false, "")
			if err != nil {
				return output{}, nil, err
			}
			measured = append(measured, r)
			setups = append(setups, r.SetupS)
		}
	} else {
		for i := 0; i < 3; i++ {
			r, err := p.spawn("setup:"+p.workload, 0, false, "")
			if err != nil {
				return output{}, nil, err
			}
			setups = append(setups, r.SetupS)
		}
		r, err := p.spawn(p.workload, 0, false, "")
		if err != nil {
			return output{}, nil, err
		}
		measured = append(measured, r)
		setups = append(setups, r.SetupS)
	}
	var jobMs, rss []float64
	var strikes, busy float64
	out := output{Metrics: map[string]metric{}}
	var problems []string
	for i, r := range measured {
		if i == 0 {
			// The recorded digest is of the first process's jobs.
			problems = append(problems, p.checkDigest(r)...)
		}
		jobMs = append(jobMs, r.JobMs...)
		rss = append(rss, r.RSSMB)
		strikes += float64(r.Strikes)
		busy += r.BusyS
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		problems = append(problems, r.Problems...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d computing jobs, job tail %s\n",
		p.workload, p.seed, len(jobMs), tailLabel(jobMs))
	fmt.Fprintf(os.Stderr, "perfbench: set-up times (s): %.3f\n", setups)
	if len(jobMs) <= 16 {
		fmt.Fprintf(os.Stderr, "perfbench: job latencies (ms): %.0f\n", jobMs)
	}
	out.Metrics["setup_s"] = metric{median(setups), "s"}
	out.Metrics["job_mean_ms"] = metric{mean(jobMs), "ms"}
	out.Metrics["strikes_per_s"] = metric{ratio(strikes, busy), "1/s"}
	out.Metrics["rss_mb"] = metric{median(rss), "MB"}
	for n, m := range out.Metrics {
		if m.Value != m.Value || m.Value <= 0 {
			problems = append(problems, fmt.Sprintf("metric %s has no measurement", n))
		}
	}
	return out, problems, nil
}

// traced runs the workload untraced, traced and untraced again on the
// same seed, each in a fresh process, and reports the traced run's
// per-layer metrics. Every run must produce identical results: the
// wrappers only time. trace.overhead compares the traced run with the
// mean of the untraced runs around it, so a host that speeds up or slows
// down over the three runs does not read as tracing cost.
func (p *parent) traced(traceOut string) (output, []string, error) {
	var runs [3]childResult
	for i := range runs {
		var err error
		if runs[i], err = p.spawn(p.workload, 0, i == 1, traceOut); err != nil {
			return output{}, nil, err
		}
	}
	tr := runs[1]
	out := output{Metrics: map[string]metric{}}
	var problems []string
	for i, r := range runs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		problems = append(problems, r.Problems...)
		problems = append(problems, p.checkDigest(r)...)
		if i == 1 {
			continue
		}
		n := min(len(r.JobDigests), len(tr.JobDigests))
		if n == 0 {
			problems = append(problems, "no jobs to compare between the traced and untraced runs")
		}
		for k := 0; k < n; k++ {
			if r.JobDigests[k] != tr.JobDigests[k] {
				out.Failed++
				problems = append(problems, fmt.Sprintf("job %d: traced result %s differs from untraced %s", k, tr.JobDigests[k], r.JobDigests[k]))
			}
		}
	}
	for name, v := range tr.Layers {
		out.Metrics[name] = metric{v, layerUnit(name)}
	}
	plain := (mean(runs[0].JobMs) + mean(runs[2].JobMs)) / 2
	out.Metrics["trace.overhead"] = metric{mean(tr.JobMs)/plain - 1, "ratio"}
	fmt.Fprintf(os.Stderr, "perfbench: job_mean_ms untraced %.1f, traced %.1f, untraced %.1f\n",
		mean(runs[0].JobMs), mean(tr.JobMs), mean(runs[2].JobMs))
	fmt.Fprintf(os.Stderr, "perfbench: traced run wrote %s.spans.jsonl and %s.summary.json\n", traceOut, traceOut)
	return out, problems, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "share"), strings.HasSuffix(name, "ratio"),
		strings.HasSuffix(name, "coverage"), strings.HasSuffix(name, "overhead"):
		return "ratio"
	}
	return "count"
}

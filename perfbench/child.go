package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"radcrit/internal/api"
	"radcrit/internal/campaign"
	"radcrit/internal/cli"
	"radcrit/internal/scratch"
	"radcrit/internal/service"
	"radcrit/internal/store"
	"radcrit/internal/telemetry"
	"radcrit/internal/tenant"
)

// childOpts configures one benchmark process: a fresh daemon stack in a
// fresh state directory, driven through one workload.
type childOpts struct {
	Role     string // a workload name, or "setup:" + a workload name
	Seed     uint64
	Seconds  float64
	Traced   bool
	State    string
	Spawned  time.Time // when the parent started this process
	TraceOut string    // traced runs write spans and their summary here
	Rate     float64   // service-mix arrivals per second, from record.json
	Index    int       // which matrix-cold process of the run this is
}

// childResult is what one benchmark process reports to its parent.
type childResult struct {
	SetupS     float64            `json:"setup_s"`
	RSSMB      float64            `json:"rss_mb"` // median resident set over the window
	JobMs      []float64          `json:"job_ms"` // computing jobs, due to Finished
	Strikes    int                `json:"strikes"`
	BusyS      float64            `json:"busy_s"` // executor time of those jobs, Started to Finished, / executors
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Digest     string             `json:"digest"`
	JobDigests []string           `json:"job_digests"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// daemon is the in-process radcritd stack: service.Manager behind
// api.Server on a loopback listener, configured like cmd/radcritd.
type daemon struct {
	m    *service.Manager
	srv  *http.Server
	base string
	done chan error
}

func startDaemon(state string, executors int, tr *tracer) (*daemon, error) {
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	var file struct {
		Tenants []tenant.Tenant `json:"tenants"`
	}
	for _, t := range mixTenants {
		file.Tenants = append(file.Tenants, tenant.Tenant{Name: t.Name, Weight: t.Weight})
	}
	data, err := json.Marshal(file)
	if err != nil {
		return nil, err
	}
	tpath := filepath.Join(state, "tenants.json")
	if err := os.WriteFile(tpath, data, 0o644); err != nil {
		return nil, err
	}
	reg, err := tenant.Load(tpath)
	if err != nil {
		return nil, err
	}
	metrics := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(metrics, "radcrit_build_info", cli.Version())
	scratch.RegisterMetrics(metrics)
	opts := service.Options{StateDir: state, Executors: executors, Metrics: metrics, Tenants: reg}
	if tr != nil {
		st, err := store.Open(filepath.Join(state, "store"))
		if err != nil {
			return nil, err
		}
		opts.Backend = &tracedBackend{Backend: st, tr: tr}
	}
	m, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	m.Start()
	mux := http.NewServeMux()
	mux.Handle("/", api.New(m, cli.Version(), api.WithRequestTimeout(30*time.Second), api.WithMetrics(metrics)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = m.Drain(context.Background())
		return nil, err
	}
	d := &daemon{m: m, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx)
	<-d.done
	return d.m.Drain(ctx)
}

// driver is the load generator's side of one process: one HTTP client
// pool of at most nproc connections, one client per tenant.
type driver struct {
	clients map[string]*api.Client
	jobs    []*jobRec
}

func newDriver(base string) *driver {
	hc := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
	}}
	d := &driver{clients: map[string]*api.Client{}}
	for _, name := range []string{tenant.Default, mixTenants[0].Name, mixTenants[1].Name} {
		c := api.NewClient(base)
		c.HTTPClient = hc
		c.Timeout = time.Minute
		c.Retries = -1 // a refusal must show as one, not be retried away
		if name != tenant.Default {
			c.Tenant = name
		}
		d.clients[name] = c
	}
	return d
}

// submit sends one job at its due time (which the caller has already
// waited for) and records the client-side timestamps.
func (d *driver) submit(ctx context.Context, j *jobRec) {
	j.Sent = time.Now()
	snap, err := d.clients[j.Tenant].Submit(ctx, j.Plan, 0)
	j.Responded = time.Now()
	if err != nil {
		j.Refused = strings.Contains(err.Error(), "HTTP 429")
		j.Err = err.Error()
	} else {
		j.Snap = snap
	}
	d.jobs = append(d.jobs, j)
}

// runClosed submits a job now and waits until the daemon finishes it.
func (d *driver) runClosed(ctx context.Context, j *jobRec) {
	j.Due = time.Now()
	d.submit(ctx, j)
	if j.Err != "" {
		return
	}
	if err := d.clients[j.Tenant].Events(ctx, j.Snap.ID, func(api.ClientEvent) {}); err != nil {
		j.Err = err.Error()
	}
}

// finish waits until every submitted job is terminal, then refreshes
// snapshots and fetches every result, timing each fetch.
func (d *driver) finish(ctx context.Context) error {
	c := d.clients[tenant.Default]
	for {
		list, err := c.List(ctx)
		if err != nil {
			return err
		}
		byID := map[string]service.Snapshot{}
		for _, s := range list.Jobs {
			byID[s.ID] = s
		}
		pending := 0
		for _, j := range d.jobs {
			if j.Snap.ID == "" {
				continue
			}
			if s, ok := byID[j.Snap.ID]; ok {
				j.Snap = s
			}
			if !j.Snap.State.Terminal() {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%d jobs still pending: %w", pending, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
	for _, j := range d.jobs {
		if j.Snap.ID == "" || j.Err != "" || j.Result != nil {
			continue
		}
		t := time.Now()
		res, err := d.clients[j.Tenant].Result(ctx, j.Snap.ID)
		j.ResultDur = time.Since(t)
		if err != nil {
			j.Err = err.Error()
			continue
		}
		j.Result = res
	}
	return nil
}

// openLoop sends jobs at start+offset(i) whatever the state of earlier
// ones, and returns how late each send started relative to its due time.
func openLoop(start time.Time, n int, offset func(i int) time.Duration, send func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := start.Add(offset(i))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late[i] = time.Since(due)
		send(i, due)
	}
	return late
}

// rssSampler samples the process's resident set every 50ms until stop.
// The median of the samples is steadier than the peak, which depends on
// when the garbage collector happened to run, and still shows memory a
// change moves into caches or set-up.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample in MB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}

// residentMB reads the resident set from /proc/self/statm.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// runChild executes one benchmark process and prints its result as one
// JSON line on standard output.
func runChild(o childOpts) error {
	var tr *tracer
	if o.Traced {
		tr = newTracer()
		installTracing(tr)
	}
	workload, setupOnly := strings.CutPrefix(o.Role, "setup:")
	nproc := runtime.NumCPU()
	// Executors x plan workers stays at nproc: one job at a time using
	// every core for the matrix workloads, one core per job for the mix.
	executors, workers := 1, nproc
	if workload == "service-mix" {
		executors, workers = nproc, 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.Seconds*float64(time.Second))+120*time.Second)
	defer cancel()

	d, err := startDaemon(o.State, executors, tr)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()
	drv := newDriver(d.base)
	// Set-up jobs: the prewarm matrix (builds the memoised HotSpot/CLAMR
	// golden runs) and, for service-mix, the history its repeats hit.
	var setupJobs []*jobRec
	var history, sched []mixJob
	if workload == "service-mix" {
		history, sched = mixSchedule(o.Seed, mixJobs(o.Rate, o.Seconds), time.Duration(o.Seconds*float64(time.Second)))
	}
	if workload != "matrix-cold" {
		setupJobs = append(setupJobs, &jobRec{Index: -1, Tenant: tenant.Default, Plan: prewarmPlan(workers)})
		for i, h := range history {
			setupJobs = append(setupJobs, &jobRec{Index: -2 - i, Tenant: h.Tenant, Plan: h.Plan})
		}
		drv.runClosed(ctx, setupJobs[0])
		for _, j := range setupJobs[1:] {
			j.Due = time.Now()
			drv.submit(ctx, j)
		}
		for _, j := range setupJobs {
			if j.Err != "" {
				return fmt.Errorf("set-up job: %s", j.Err)
			}
		}
		if err := drv.finish(ctx); err != nil {
			return fmt.Errorf("set-up jobs: %w", err)
		}
		drv.jobs = nil
	}
	res := childResult{SetupS: time.Since(o.Spawned).Seconds()}
	if setupOnly {
		return emit(res)
	}
	rss := sampleRSS()
	if tr != nil {
		tr.reset()
	}

	var prefix int // jobs covered by the result digest
	switch workload {
	case "matrix-cold":
		j := &jobRec{Index: o.Index, Tenant: tenant.Default, Plan: coldPlan(o.Seed, o.Index, workers)}
		drv.runClosed(ctx, j)
		prefix = 1
	case "matrix-warm":
		deadline := time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
		for i := 0; i < 2 || time.Now().Before(deadline); i++ {
			j := &jobRec{Index: i, Tenant: tenant.Default, Plan: warmPlan(o.Seed, i, workers)}
			drv.runClosed(ctx, j)
			if j.Err != "" {
				break
			}
		}
		prefix = 2
	case "service-mix":
		start := time.Now().Add(20 * time.Millisecond)
		openLoop(start, len(sched), func(i int) time.Duration { return sched[i].Due }, func(i int, due time.Time) {
			drv.submit(ctx, &jobRec{Index: i, Tenant: sched[i].Tenant, Plan: sched[i].Plan, Due: due})
		})
		prefix = min(len(sched), mixDigestJobs)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if err := drv.finish(ctx); err != nil {
		return err
	}
	measuredEnd := time.Now()
	res.RSSMB = rss.median()
	// After the window, resubmit finished plans on the idle daemon: every
	// workload then has store-hit jobs to time and to check against the
	// fresh computation of the same cells.
	probes := 40
	if workload == "matrix-cold" {
		probes = 5
	}
	probe(ctx, drv, append([]*jobRec(nil), drv.jobs...), probes)
	if err := drv.finish(ctx); err != nil {
		return err
	}

	// Everything below runs after the timed window.
	res.Problems = check(workload, setupJobs, drv.jobs)
	var busy time.Duration
	for _, j := range drv.jobs {
		res.Attempted++
		if !j.ok() || j.Result == nil || j.bad {
			res.Failed++
			continue
		}
		if !j.computed() {
			continue
		}
		res.JobMs = append(res.JobMs, ms(j.latency()))
		for _, c := range j.Result.Cells {
			if !c.Cached {
				res.Strikes += c.Info.Strikes
			}
		}
		busy += j.Snap.Finished.Sub(*j.Snap.Started)
	}
	// Throughput is taken over the time the executors spent on the jobs,
	// not over the window: on service-mix the open loop offers a fixed
	// amount of work, so strikes over the window would measure the load
	// generator. With one executor running jobs back to back (the matrix
	// workloads) the two are nearly the same.
	res.BusyS = busy.Seconds() / float64(executors)
	for i, j := range drv.jobs {
		if j.Probe {
			break
		}
		jd := jobDigest(j)
		res.JobDigests = append(res.JobDigests, jd)
		if i < prefix {
			res.Digest += jd
		}
	}
	sum := sha256.Sum256([]byte(res.Digest))
	res.Digest = hex.EncodeToString(sum[:])
	if workload == "service-mix" {
		// Capacity is estimated as the arrival rate over the share of
		// executor time the window's jobs kept busy.
		var all time.Duration
		for _, j := range drv.jobs {
			if j.ok() && !j.Probe {
				all += j.Snap.Finished.Sub(*j.Snap.Started)
			}
		}
		window := measuredEnd.Sub(drv.jobs[0].Due)
		util := all.Seconds() / (window.Seconds() * float64(executors))
		fmt.Fprintf(os.Stderr, "perfbench: service-mix %.2f jobs/s kept the executors %.0f%% busy over %.1fs: capacity about %.1f jobs/s\n",
			o.Rate, 100*util, window.Seconds(), o.Rate/util)
	}
	if tr != nil {
		spans, insts := tr.snapshot()
		layers, summary, all := layerMetrics(tr, drv.jobs, spans, insts)
		res.Layers = layers
		if err := writeTrace(o.TraceOut, all, summary); err != nil {
			return err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return fmt.Errorf("daemon drain: %w", err)
	}
	return emit(res)
}

// mixDigestJobs is how many leading service-mix jobs the recorded digest
// covers; their plans depend only on the seed.
const mixDigestJobs = 24

// probe resubmits n already finished plans one after another, cycling
// through jobs; each must come back entirely from the store.
func probe(ctx context.Context, drv *driver, jobs []*jobRec, n int) {
	for i := 0; i < n && len(jobs) > 0; i++ {
		src := jobs[i%len(jobs)]
		if src.Result == nil {
			continue
		}
		drv.runClosed(ctx, &jobRec{Index: src.Index, Probe: true, Tenant: src.Tenant, Plan: src.Plan})
	}
}

func emit(res childResult) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// writeTrace writes the run's spans as JSON lines and the per-layer
// summary beside them, once, at the end of the run.
func writeTrace(path string, spans []span, summary traceSummary) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path+".summary.json", data, 0o644)
}

// cellJSON is the canonical form of one cell's outcome: Info and Summary.
func cellJSON(c service.CellResult) string {
	data, err := json.Marshal(struct {
		Info    *campaign.StreamInfo `json:"info"`
		Summary *campaign.Summary    `json:"summary"`
	}{c.Info, c.Summary})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(data)
}

// jobDigest hashes a job's cells in plan order.
func jobDigest(j *jobRec) string {
	h := sha256.New()
	if j.Result != nil {
		for _, c := range j.Result.Cells {
			h.Write([]byte(cellJSON(c)))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// check verifies every job's outputs and marks the jobs that fail:
// tally totals equal the strikes planned, cached cells equal the fresh
// computation of the same cell, matrix jobs compute every cell and
// probe jobs are served entirely from the store.
func check(workload string, setupJobs, jobs []*jobRec) []string {
	var problems []string
	fresh := map[string]string{}
	for _, j := range append(append([]*jobRec(nil), setupJobs...), jobs...) {
		if j.Result == nil {
			continue
		}
		for i, c := range j.Result.Cells {
			if !c.Cached && i < len(j.Plan.Cells) {
				if _, ok := fresh[j.Plan.CellKey(i)]; !ok {
					fresh[j.Plan.CellKey(i)] = cellJSON(c)
				}
			}
		}
	}
	for _, j := range jobs {
		fail := func(format string, args ...any) {
			j.bad = true
			problems = append(problems, fmt.Sprintf("job %d (%s): ", j.Index, j.Snap.ID)+fmt.Sprintf(format, args...))
		}
		switch {
		case j.Err != "":
			fail("%s", j.Err)
			continue
		case j.Snap.State != service.StateDone:
			fail("state %s: %s", j.Snap.State, j.Snap.Error)
			continue
		case j.Result == nil || len(j.Result.Cells) != len(j.Plan.Cells):
			fail("result has the wrong number of cells")
			continue
		}
		for i, c := range j.Result.Cells {
			switch {
			case c.Error != "" || c.Info == nil || c.Summary == nil:
				fail("cell %d failed: %s", i, c.Error)
			case c.Info.Strikes != j.Plan.Strikes || c.Summary.Tally.Count() != j.Plan.Strikes:
				fail("cell %d tallies %d strikes of %d planned", i, c.Summary.Tally.Count(), j.Plan.Strikes)
			case c.Cached && fresh[j.Plan.CellKey(i)] != "" && fresh[j.Plan.CellKey(i)] != cellJSON(c):
				fail("cell %d served from the store differs from its fresh computation", i)
			case j.Probe && !c.Cached:
				fail("probe cell %d was recomputed instead of served from the store", i)
			case !j.Probe && c.Cached && workload != "service-mix":
				fail("cell %d was served from the store; %s must compute every cell", i, workload)
			}
		}
	}
	return problems
}

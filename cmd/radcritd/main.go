// Command radcritd is the campaign daemon: a long-lived service that
// accepts declarative campaign Plans over HTTP, schedules them on a
// priority/FIFO queue, streams them through the campaign engine with
// live progress, deduplicates identical cells through a persistent
// content-addressed result store, and survives restarts — in-flight
// cells checkpoint continuously and are resumed from the last #CHK
// record with bit-identical final summaries.
//
//	radcritd -addr 127.0.0.1:8447 -state ./radcritd-state
//
// Submit the same JSON plans the CLI tools take:
//
//	curl -X POST --data-binary @plan.json http://127.0.0.1:8447/v1/jobs
//	curl http://127.0.0.1:8447/v1/jobs/<id>          # status
//	curl http://127.0.0.1:8447/v1/jobs/<id>/result   # summaries
//	curl http://127.0.0.1:8447/v1/jobs/<id>/events   # SSE progress
//
// SIGINT/SIGTERM drain gracefully: running jobs stop at their next chunk
// boundary with their checkpoint logs flushed, and a restarted daemon on
// the same -state directory resumes them.
//
// -fleet turns the daemon into a coordinator: a job's cells are sharded
// into lease-based work items that registered workers pull, heartbeat
// and complete; a lost worker's lease expires and its cell requeues from
// the last streamed checkpoint, and with zero healthy workers the daemon
// degrades to local execution. Fleet health is at GET /v1/fleet.
//
// -worker joins a coordinator's fleet instead of serving:
//
//	radcritd -worker -coordinator http://127.0.0.1:8447 -name w1
//
// -oneshot runs a plan in-process through the same engine and prints the
// result in the API's JSON shape — the comparison form CI uses to assert
// that daemon results equal direct StreamRunner runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"radcrit/internal/api"
	"radcrit/internal/campaign"
	"radcrit/internal/cli"
	"radcrit/internal/fleet"
	"radcrit/internal/scratch"
	"radcrit/internal/service"
	"radcrit/internal/store"
	"radcrit/internal/telemetry"
	"radcrit/internal/tenant"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8447", "listen address")
	state := flag.String("state", "radcritd-state", "state `dir`: job records, checkpoint logs, result store")
	executors := flag.Int("executors", 2, "jobs executed concurrently")
	storeCapMB := flag.Int64("store-cap-mb", 0, "result-store size cap in MiB before LRU eviction (0 = uncapped)")
	tenantsPath := flag.String("tenants", "", "tenant registry `file` (default <state>/tenants.json; missing file = default tenant only)")
	storeBackend := flag.String("store-backend", "disk", "result store backend: disk or mem")
	maxJobs := flag.Int("max-jobs", 0, "job records retained before the oldest finished jobs are pruned (0 = default 1024)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long a shutdown waits for in-flight chunks to checkpoint")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline (event streams are exempt)")
	oneshot := flag.String("oneshot", "", "run the plan `file` in-process and print the result JSON (no daemon)")
	fleetMode := flag.Bool("fleet", false, "coordinate a worker fleet: shard job cells into leases workers pull")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fleet: lease lifetime without a heartbeat before a cell requeues")
	speculate := flag.Duration("speculate-after", 30*time.Second, "fleet: straggler threshold before a cell is speculatively re-dispatched")
	worker := flag.Bool("worker", false, "run as a fleet worker instead of serving")
	coordinator := flag.String("coordinator", "http://127.0.0.1:8447", "worker: coordinator base URL")
	name := flag.String("name", "", "worker: label shown in fleet health (default: hostname)")
	throttle := flag.Duration("throttle-chunk", 0, "worker: pause after each checkpoint chunk (pacing for chaos/failure drills)")
	metricsAddr := flag.String("metrics-addr", "", "worker: serve GET /metrics on this address (serve mode exposes /metrics on -addr)")
	var prof cli.ProfileFlags
	prof.Bind(flag.CommandLine)
	showVersion := cli.VersionFlag(flag.CommandLine)
	flag.Parse()
	cli.ExitIfVersion(*showVersion)

	if err := prof.Start(); err != nil {
		cli.Fatal("radcritd", "%v", err)
	}

	if *oneshot != "" {
		runOneshot(*oneshot)
		stopProfiles(&prof)
		return
	}
	if *worker {
		runWorker(*coordinator, *name, *throttle, *metricsAddr)
		stopProfiles(&prof)
		return
	}

	logger := log.New(os.Stderr, "radcritd: ", log.LstdFlags)
	metrics := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(metrics, "radcrit_build_info", cli.Version())
	scratch.RegisterMetrics(metrics)
	opts := service.Options{
		StateDir:  *state,
		Executors: *executors,
		StoreCap:  *storeCapMB << 20,
		MaxJobs:   *maxJobs,
		Metrics:   metrics,
	}
	tpath := *tenantsPath
	if tpath == "" {
		tpath = filepath.Join(*state, "tenants.json")
	}
	reg, err := tenant.Load(tpath)
	if err != nil {
		logger.Fatal(err)
	}
	opts.Tenants = reg
	switch {
	case *storeBackend == "" || *storeBackend == "disk":
		// nil Backend: the manager opens the disk store under -state.
	case *storeBackend == "mem":
		opts.Backend = store.NewMem()
	default:
		logger.Fatalf("unknown -store-backend %q (want disk or mem)", *storeBackend)
	}
	var coord *fleet.Coordinator
	if *fleetMode {
		coord = fleet.NewCoordinator(fleet.Options{
			LeaseTTL:       *leaseTTL,
			SpeculateAfter: *speculate,
			Logf:           logger.Printf,
		})
		coord.RegisterMetrics(metrics)
		opts.Remote = coord
	}
	m, err := service.New(opts)
	if err != nil {
		logger.Fatal(err)
	}
	m.Start()

	root := http.NewServeMux()
	root.Handle("/", api.New(m, cli.Version(),
		api.WithRequestTimeout(*requestTimeout),
		api.WithMetrics(metrics)))
	if coord != nil {
		coord.Routes(root)
	}
	// The listener-side timeouts keep a slow or stalled client — a
	// half-open mobile connection, a worker dying mid-upload — from
	// pinning a connection (and its handler goroutine) forever. Write
	// deadlines stay per-request (via -request-timeout) because the SSE
	// event stream is legitimately long-lived.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Printf("%s", cli.Version())
	logger.Printf("serving on http://%s (state: %s, executors: %d, fleet: %v)", *addr, *state, *executors, *fleetMode)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Hot-reload tenants.json: weights re-shape the live queue
				// (effective on the next pop), rate limits and quotas apply
				// to the next request. A bad file keeps the old table.
				if err := m.ReloadTenants(); err != nil {
					logger.Printf("SIGHUP: tenants reload failed, old table kept: %v", err)
				} else {
					logger.Printf("SIGHUP: tenants reloaded from %s", tpath)
				}
				continue
			}
			logger.Printf("%v: draining (in-flight jobs checkpoint and re-queue; "+
				"restart on the same -state to resume)", sig)
			break loop
		case err := <-errc:
			logger.Printf("server: %v", err)
			break loop
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := m.Drain(ctx); err != nil {
		logger.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	if coord != nil {
		coord.Close()
	}
	stopProfiles(&prof)
	logger.Printf("drained cleanly")
}

// stopProfiles flushes -cpuprofile/-memprofile on the tool's clean exit
// paths (serve drain, oneshot, worker stop); error exits abandon them.
func stopProfiles(prof *cli.ProfileFlags) {
	if err := prof.Stop(); err != nil {
		cli.Fatal("radcritd", "%v", err)
	}
}

// runWorker joins a coordinator's fleet and processes leases until
// SIGINT/SIGTERM, abandoning any in-flight lease so its cell requeues
// immediately.
func runWorker(base, name string, throttle time.Duration, metricsAddr string) {
	logger := log.New(os.Stderr, "radcritd-worker: ", log.LstdFlags)
	if name == "" {
		name, _ = os.Hostname()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var em *service.EngineMetrics
	if metricsAddr != "" {
		metrics := telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(metrics, "radcrit_build_info", cli.Version())
		scratch.RegisterMetrics(metrics)
		em = service.NewEngineMetrics(metrics)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler())
		msrv := &http.Server{Addr: metricsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("metrics server: %v", err)
			}
		}()
		defer msrv.Close()
		logger.Printf("metrics on http://%s/metrics", metricsAddr)
	}
	w := fleet.NewWorker(fleet.WorkerOptions{Base: base, Name: name, Logf: logger.Printf, ThrottleChunk: throttle, Metrics: em})
	logger.Printf("%s", cli.Version())
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Fatal(err)
	}
	logger.Printf("stopped")
}

// runOneshot executes a plan in-process through StreamRunner and prints
// the result in the daemon's wire shape.
func runOneshot(path string) {
	plan, err := cli.LoadPlanFile(path)
	if err != nil {
		cli.Fatal("radcritd", "%v", err)
	}
	res, err := (&campaign.StreamRunner{}).Run(context.Background(), plan)
	if err != nil {
		cli.Fatal("radcritd", "%v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(service.ResultFromPlan("oneshot", res)); err != nil {
		cli.Fatal("radcritd", "%v", err)
	}
	fmt.Fprintln(os.Stderr, "radcritd: oneshot plan completed")
}

// Command serve runs the concurrent sort engine as an HTTP service —
// the production-shaped front end to the library: many independent
// requests against a recurring set of (dim, faults) configurations,
// served from the engine's plan cache and machine pools.
//
// Usage:
//
//	serve -addr :8080 [-pool 4] [-workers 8] [-trace-buf 65536] [-trace-sample 1]
//	serve [-mode direct|sim] [-oracle-sample 1024] [-routing ecube|multipath]
//	serve [-admission-queue 256]
//	serve [-shards 4] [-replicas 1] [-spill-high-water 16] [-shed-limit 256]
//	serve -cluster-mode=shard -addr :9101
//	serve -cluster-mode=proxy -shard-addrs host1:9101,host2:9101,host3:9101
//
// Simulated requests wait for a machine of their configuration's pool.
// When -admission-queue requests are already waiting, further ones
// answer 503 with Retry-After — backpressure, not client error; the
// Retry-After value is the ceiling of the observed median queue wait
// (minimum 1s).
//
// The service holds exactly one *hypersort.Engine, which is always a
// consistent-hash router over engine shards; -shards N sets how many
// (0 = 1 shard, the single-engine deployment). Same-configuration
// traffic keeps landing on its home shard, hot configurations spill
// to -replicas replica shards past -spill-high-water in-flight
// requests, and when home plus replicas all reach -shed-limit the
// router sheds with the same 503 contract before the request touches
// any queue (see DESIGN.md §11).
//
// -cluster-mode splits the shards across PROCESSES (see DESIGN.md §13).
// "shard" serves one engine shard over the pipelined binary wire
// protocol instead of HTTP — start N of them, one per core or host.
// "proxy" serves the normal HTTP API but routes every request to the
// shard processes named by -shard-addrs on the same consistent-hash
// ring the in-process shards use, spilling and shedding against the
// live in-flight gauges each shard feeds back on every response. A dead
// shard is detected by transport error, routed around via ring
// successors (zero failed requests for in-flight storms), and reprobed
// until it returns. The engine-tuning flags (-pool, -admission-queue,
// ...) apply where the engines live: pass them to the shard processes, not
// the proxy.
//
// -mode selects the execution substrate. "direct" (the default) serves
// eligible sorts at host speed with predicted stats ("direct":true in
// the response); selection ops, and every request while -chaos
// injections are armed, run on the simulator. "sim" runs every request
// on the simulated machine with measured stats. Tracing does not
// change the substrate: a direct sort replays its compare-split
// schedule into the -trace-buf ring. -oracle-sample N re-runs one in N
// direct results on the simulator and counts any output mismatch as a
// parity break (0 = off).
//
// -routing selects the default compare-split routing policy. "ecube"
// (the default) is the paper's dimension-order discipline with hop-count
// pricing. "multipath" stripes large transfers across vertex-disjoint
// paths and prices per-link queueing into the simulated makespan;
// multipath requests always run on the simulator (never direct). A
// request may override the default with
// its own "routing" field. See DESIGN.md §12 and the routing-modes
// section of README.md.
//
// Endpoints:
//
//	POST /v1/sort    one request  {"dim":6,"faults":[3,17],"keys":[...]}
//	POST /v1/batch   {"requests":[...]} — per-request error isolation
//	GET  /metrics    Prometheus text-format exposition of every metric
//	GET  /v1/metrics shard-summed engine counters, the router's cluster
//	                 section (per-shard split), process memory stats,
//	                 and the metrics registry snapshot as JSON
//	GET  /v1/trace   Chrome trace-event JSON of the most recent machine
//	                 events (?last=N trims; load in ui.perfetto.dev)
//	GET  /debug/pprof/  live profiling (heap, allocs, goroutine, profile)
//	GET  /healthz
//
// With -chaos, two drill endpoints arm live casualties against a
// configuration's machine pool (see DESIGN.md §9):
//
//	POST /v1/chaos/inject  {"dim":4,"kill_node":5,"at":120} or
//	                       {"dim":4,"kill_link":[0,1],"after_messages":7}
//	POST /v1/chaos/disarm  {"dim":4} — stand the drill down
//
// Sorts struck by an armed kill recover in-flight — online diagnosis,
// hot replan, key redistribution — and still answer 200 with the sorted
// keys; recovery latency and replan counters land on /metrics.
//
// See OBSERVABILITY.md for the full metric and trace reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hypersort"
	"hypersort/internal/cluster"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/trace"
	"hypersort/internal/transport"
)

const (
	// drainTimeout bounds how long shutdown waits for in-flight requests.
	drainTimeout = 10 * time.Second
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so a stalled or trickling client cannot hold a
	// connection and its goroutine forever.
	readHeaderTimeout = drainTimeout
	// defaultOracleSample is -oracle-sample's default: one direct result
	// in 1024 is re-run on the simulator (see EXPERIMENTS.md E22 for its
	// measured cost).
	defaultOracleSample = 1024
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		pool        = flag.Int("pool", 0, "machines pooled per configuration (0 = GOMAXPROCS)")
		workers     = flag.Int("workers", 0, "concurrent batch requests (0 = GOMAXPROCS)")
		admission   = flag.Int("admission-queue", 0, "requests allowed to wait for a machine per configuration before 503s (0 = default)")
		shards      = flag.Int("shards", 0, "engine shards behind the consistent-hash router (0 = 1 shard)")
		clusterMode = flag.String("cluster-mode", "", "multi-process role: \"shard\" serves one engine over the binary wire protocol, \"proxy\" fronts -shard-addrs over HTTP (\"\" = in-process)")
		shardAddrs  = flag.String("shard-addrs", "", "comma-separated shard process addresses for -cluster-mode=proxy")
		replicas    = flag.Int("replicas", -1, "replica shards a hot plan key may spill to (-1 = default 1, 0 = spill off; clamped to shards-1)")
		spillHW     = flag.Int("spill-high-water", 0, "in-flight requests on a home shard before spilling to replicas (0 = default)")
		shedLimit   = flag.Int("shed-limit", 0, "in-flight requests per shard before the router sheds with 503 (0 = default)")
		mode        = flag.String("mode", "direct", "execution substrate: direct or sim")
		routing     = flag.String("routing", "ecube", "default compare-split routing policy: ecube or multipath (per-request \"routing\" overrides)")
		oracle      = flag.Int("oracle-sample", defaultOracleSample, "cross-check 1 in N direct results on the simulator oracle (0 = off)")
		traceBuf    = flag.Int("trace-buf", 1<<16, "machine events kept for /v1/trace (0 disables tracing)")
		traceSample = flag.Int("trace-sample", 1, "record 1 of every N machine events")
		chaos       = flag.Bool("chaos", false, "enable the /v1/chaos fault-injection endpoints (live-fault drills)")
	)
	flag.Parse()

	// The ring stays attached for the process lifetime: bounded memory,
	// one atomic claim per event, and /v1/trace exports the most recent
	// window on demand.
	var ring *trace.Ring
	execMode, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	routePolicy, err := parseRouting(*routing)
	if err != nil {
		fatal(err)
	}
	ecfg := hypersort.EngineConfig{
		Shards:         *shards,
		Replicas:       *replicas,
		SpillHighWater: *spillHW,
		ShedLimit:      *shedLimit,
		PoolSize:       *pool,
		BatchWorkers:   *workers,
		AdmissionQueue: *admission,
		Mode:           execMode,
		OracleSample:   *oracle,
	}
	if *traceBuf > 0 {
		ring = trace.NewRing(*traceBuf, *traceSample)
		ecfg.Trace = ring.Record
	}
	switch *clusterMode {
	case "", "proxy", "shard":
	default:
		fatal(fmt.Errorf("unknown -cluster-mode %q (want shard, proxy, or empty)", *clusterMode))
	}
	if *clusterMode != "" && *shards > 0 {
		fatal(errors.New("-cluster-mode and -shards are mutually exclusive: shard count is the -shard-addrs list length"))
	}
	if *clusterMode == "shard" {
		if err := runShard(*addr, ecfg); err != nil {
			fatal(err)
		}
		return
	}

	// The engine behind the HTTP handler set: in-process shards, or the
	// shard processes named by -shard-addrs (-cluster-mode=proxy).
	var eng *hypersort.Engine
	if *clusterMode == "proxy" {
		addrs := splitAddrs(*shardAddrs)
		if len(addrs) == 0 {
			fatal(errors.New("-cluster-mode=proxy requires -shard-addrs"))
		}
		eng = hypersort.NewRemoteEngine(ecfg, addrs)
	} else {
		eng = hypersort.NewEngine(ecfg)
	}
	// Graceful shutdown: SIGINT/SIGTERM stops accepting, drains in-flight
	// requests, then retires the engine's pooled worker goroutines — the
	// teardown half of the persistent-worker substrate.
	srv := newHTTPServer(newMux(eng, ring, *chaos, routePolicy))
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("serve: listening on %s (cluster-mode=%q shards=%d pool=%d workers=%d mode=%s routing=%s trace-buf=%d)\n", lis.Addr(), *clusterMode, eng.NumShards(), *pool, *workers, execMode, routePolicy, *traceBuf)
	if err := serveUntil(srv, lis, done, drainTimeout, eng.Close); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Println("serve: drained, workers retired")
}

// newHTTPServer builds the HTTP server around h with the service's
// connection bounds.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// serveUntil serves srv on lis until sig delivers, drains in-flight
// requests (bounded by the drain timeout), and only THEN closes the
// backend. The ordering is the point: http.Server's ListenAndServe
// returns the moment Shutdown begins, so closing the backend right
// after it — the old shape of main — raced engine teardown against
// handlers still executing requests. A regression test pins the order.
func serveUntil(srv *http.Server, lis net.Listener, sig <-chan os.Signal, drain time.Duration, closeBackend func()) error {
	shutdownErr := make(chan error, 1)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	if err := srv.Serve(lis); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Shutdown returns only after every in-flight handler finished (or
	// the drain deadline passed); the backend must outlive them.
	err := <-shutdownErr
	closeBackend()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// runShard serves one engine shard over the binary wire protocol — the
// -cluster-mode=shard role. It is the same cluster.NewLocalShard engine
// every in-process shard runs, so the engine flags mean exactly what
// they mean in HTTP mode; only the front door changes. The
// listen line prints the RESOLVED address so orchestration (and the CI
// smoke leg) can start shards on ":0" and scrape the ports.
func runShard(addr string, ecfg hypersort.EngineConfig) error {
	shard := cluster.NewLocalShard(cluster.Options{
		PoolSize:     ecfg.PoolSize,
		Workers:      ecfg.BatchWorkers,
		Batch:        engine.BatchOptions{QueueDepth: ecfg.AdmissionQueue},
		Mode:         ecfg.Mode,
		OracleSample: ecfg.OracleSample,
		Trace:        machine.TraceFunc(ecfg.Trace),
	})
	shard.Instrument(obs.Default())
	queueWait := obs.Default().Histogram("hypersort_engine_queue_wait_ns",
		"Nanoseconds a request waited for execution capacity (machine-pool acquire).")
	srv := transport.NewServer(shard, transport.ServerOptions{QueueWait: queueWait})

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdownErr := make(chan error, 1)
	go func() {
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	fmt.Printf("serve: shard listening on %s (wire protocol v%d)\n", lis.Addr(), transport.Version)
	if err := srv.Serve(lis); !errors.Is(err, net.ErrClosed) {
		return err
	}
	// Same drain-before-close ordering as the HTTP path: the engine
	// shuts down only after in-flight wire requests finished.
	if err := <-shutdownErr; err != nil {
		fmt.Fprintln(os.Stderr, "serve: shard drain:", err)
	}
	shard.Close()
	fmt.Println("serve: shard drained, engine closed")
	return nil
}

// splitAddrs parses the -shard-addrs list, dropping empty entries.
func splitAddrs(s string) []string {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// parseRouting maps the -routing flag to the default routing policy.
func parseRouting(s string) (hypersort.RoutingPolicy, error) {
	switch s {
	case "ecube":
		return hypersort.RouteECube, nil
	case "multipath":
		return hypersort.RouteMultipath, nil
	}
	return hypersort.RouteECube, fmt.Errorf("serve: unknown -routing %q (want ecube or multipath)", s)
}

// parseMode maps the -mode flag to an execution substrate.
func parseMode(s string) (hypersort.ExecMode, error) {
	switch s {
	case "direct":
		return hypersort.ModeDirect, nil
	case "sim":
		return hypersort.ModeSim, nil
	}
	return hypersort.ModeDirect, fmt.Errorf("serve: unknown -mode %q (want direct or sim)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}

package hypersort

import (
	"context"
	"fmt"
	"time"

	"hypersort/internal/cluster"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/transport"
)

// EngineConfig tunes an Engine: its shard topology and routing
// thresholds, and the per-shard resource bounds and continuous-batching
// dispatcher. The zero value selects sensible defaults (one shard,
// GOMAXPROCS for both resource bounds, batching on).
type EngineConfig struct {
	// Shards is the number of independent engine shards behind the
	// consistent-hash router, each with its own plan cache, machine
	// pools, and dispatch lanes. Values < 1 mean 1: a single-engine
	// deployment is a cluster of one.
	Shards int
	// Replicas is how many replica shards a hot plan key may spill to
	// when its home shard crosses SpillHighWater. 0 disables spill;
	// values < 0 select the default (1). Clamped to Shards-1.
	Replicas int
	// SpillHighWater is the in-flight request count on a key's home
	// shard above which the router considers a replica. Values < 1
	// select the default (2x the fused batch depth).
	SpillHighWater int
	// ShedLimit is the per-shard in-flight count at which a shard stops
	// accepting routed traffic; when the home shard and every replica
	// reach it the request is refused with ErrClusterSaturated (which
	// wraps ErrAdmissionRejected — the same 503 contract). Values < 1
	// select the default (the admission queue depth, raised above
	// SpillHighWater).
	ShedLimit int

	// The remaining fields apply to every shard independently.

	// PoolSize bounds the simulated machines kept per configuration.
	// Each concurrent request on one configuration needs its own
	// machine; beyond PoolSize in-flight requests for a configuration,
	// further requests wait for a machine to free up. A machine costs
	// 2^Dim node states, so size the pool by memory and host
	// parallelism, not by request count. Values < 1 mean GOMAXPROCS.
	PoolSize int
	// BatchWorkers bounds how many requests SortBatch executes
	// concurrently across all configurations. Values < 1 mean
	// GOMAXPROCS.
	BatchWorkers int
	// Trace, if non-nil, receives every machine event (send, receive,
	// compute) of every request the engine serves. Unlike Sorter's
	// per-run Config.Trace — which the engine rejects — this hook is
	// engine-wide: pooled machines share it, so events from concurrent
	// requests interleave. It is called from many goroutines at once and
	// must be safe for concurrent use; a bounded sampling sink (the
	// internal ring tracer behind cmd/serve's /v1/trace) is the intended
	// consumer. Leave nil for zero tracing overhead.
	Trace func(TraceEvent)

	// DisableBatching turns the continuous-batching dispatcher off:
	// every request leases its own machine (the pool-only behaviour of
	// earlier releases). Mainly for A/B measurement.
	DisableBatching bool
	// MaxBatch caps how many concurrent compatible sort requests one
	// fused machine run may carry. Values < 1 select the default (8).
	MaxBatch int
	// MaxLinger is how long the dispatcher holds a partial batch open
	// waiting for more requests. 0 (the default) never waits: batches
	// form only while the machine pool is saturated, adding no latency
	// at low load. Positive values trade latency for larger batches.
	MaxLinger time.Duration
	// AdmissionQueue bounds how many sort requests may wait per
	// configuration; beyond it requests fail fast with
	// ErrAdmissionRejected. Values < 1 select the default (256).
	AdmissionQueue int

	// Mode selects the execution substrate. ModeSim (the default) runs
	// every request on the simulated machine with measured Stats.
	// ModeDirect serves eligible sorts (full-block protocol, no
	// distribution accounting) at host speed with analytically predicted
	// Stats — bit-identical sorted output, no simulated machinery — and
	// falls back to the simulator for everything else, including any
	// configuration with chaos injections armed. ModeAuto is ModeDirect
	// unless Trace is set (direct runs emit no machine events).
	Mode ExecMode
	// OracleSample, when > 0 with direct execution active, re-runs one
	// in every OracleSample direct results on the simulator oracle and
	// cross-checks the sorted output (EngineMetrics.OracleRuns /
	// ParityBreaks; the sampled request waits for the simulated run).
	OracleSample int
}

// ExecMode selects an Engine's execution substrate; see EngineConfig.Mode.
type ExecMode = engine.Mode

// Execution substrates: the simulator (measured Stats), the direct
// host-speed path (predicted Stats), or automatic selection.
const (
	ModeSim    = engine.ModeSim
	ModeDirect = engine.ModeDirect
	ModeAuto   = engine.ModeAuto
)

// ErrAdmissionRejected is found (via errors.Is) in a Result.Err or Sort
// error when the engine's bounded admission queue for the request's
// configuration was full. It is the backpressure signal: shed load or
// retry with backoff. cmd/serve maps it to HTTP 503.
var ErrAdmissionRejected = engine.ErrAdmissionRejected

// ErrUnrecoverable is found (via errors.Is) in a Result.Err or Sort
// error when a live fault injected mid-run left the configuration beyond
// repair: the degraded fault set no longer admits a single-fault
// partition, so the engine failed fast instead of hanging or
// mis-sorting. Within the paper's guarantee band (at most Dim-1
// processor faults in total) it is never reported.
var ErrUnrecoverable = engine.ErrUnrecoverable

// Injection is one scheduled live fault for InjectFault: a processor or
// link killed at a virtual time (or on the victim's Nth send) while sort
// kernels are running. See the field docs for trigger semantics.
type Injection = machine.Injection

// InjectionKind selects what an Injection destroys.
type InjectionKind = machine.InjectionKind

// Injection kinds: kill a processor, or sever one hypercube edge.
const (
	KillNode = machine.KillNode
	KillLink = machine.KillLink
)

// ProcessorDiedError reports (via errors.As) a processor killed by a
// fired injection; recovery normally absorbs it, so callers see it only
// when replanning was impossible or injections fired beyond repair.
type ProcessorDiedError = machine.ProcessorDiedError

// LinkDiedError is ProcessorDiedError's link-casualty counterpart.
type LinkDiedError = machine.LinkDiedError

// ErrClusterSaturated is found (via errors.Is) in a Result.Err or Sort
// error when the engine's router shed the request: its home shard and
// every replica candidate were at the shed limit, so the request was
// refused before touching any queue. It always wraps
// ErrAdmissionRejected, so existing backpressure handling (503 +
// Retry-After in cmd/serve) applies unchanged.
var ErrClusterSaturated = cluster.ErrSaturated

// Engine is a concurrent, reusable front end to the fault-tolerant
// sorter, built for serving many requests against a recurring set of
// configurations. Unlike Sorter it is safe for arbitrary concurrent use:
// it caches partition plans by canonical configuration (so repeated
// configurations skip the O(rN) cutting-dimension search entirely),
// pools independent simulated machines per configuration (so concurrent
// requests run in parallel instead of serializing or racing), and
// coalesces concurrent compatible sort requests into fused machine runs
// via a continuous-batching dispatcher (so a saturated pool amortizes
// lease and dispatch overhead across the queue instead of paying it per
// request — see EngineConfig's MaxBatch/MaxLinger/AdmissionQueue).
//
// Behind the facade sit EngineConfig.Shards independent engine shards
// and a consistent-hash router — the paper's working-subcube partition
// applied to the serving stack itself, with the single engine as its
// one-shard case. Same-configuration traffic keeps landing on (and
// fusing within) one shard; a hot configuration spills to replica
// shards when its home saturates; and when every eligible shard is
// saturated the router sheds the request with ErrClusterSaturated
// before it touches a queue. Direct-eligible sorts run inline on the
// caller's goroutine once the router admits them.
//
// Limitations: Config.Trace is rejected — a per-run event hook cannot be
// cached or pooled; use a dedicated Sorter to trace a run. Plan-search
// failures (inseparable fault sets) are cached like successes, so
// retrying a doomed configuration is cheap.
type Engine struct {
	c *cluster.Cluster
}

// NewEngine builds an engine. It performs no planning up front; plans
// and machines materialize lazily as configurations are first used.
//
// Every engine registers its observability bundles in the process-wide
// metrics registry (exposed by cmd/serve on GET /metrics): request
// latency, plan-cache and pool counters, per-run machine aggregates,
// per-phase kernel breakdowns, and the router's spill/shed counters and
// per-shard series. The bundles are shared instruments — two engines in
// one process accumulate into the same series.
func NewEngine(cfg EngineConfig) *Engine {
	opts := cfg.routerOptions()
	opts.Shards = max(cfg.Shards, 1)
	opts.PoolSize = cfg.PoolSize
	opts.Batch.Disabled = cfg.DisableBatching
	opts.Batch.MaxLinger = cfg.MaxLinger
	opts.Mode = cfg.Mode
	opts.OracleSample = cfg.OracleSample
	opts.Trace = machine.TraceFunc(cfg.Trace)
	return newEngine(cluster.New(opts))
}

// NewRemoteEngine builds an engine whose shards are separate PROCESSES
// (started with `serve -cluster-mode=shard`), one per address, reached
// over the pipelined binary wire protocol. Routing is identical to the
// in-process engine — the consistent-hash ring hashes shard indices,
// so a proxy fleet sharing one ordered address list routes every key
// the same way — with two multi-process additions: spill and shed
// consult the live per-shard in-flight gauge fed back on every
// response, and a dead shard (connection refused, broken mid-call,
// timed out) is marked unhealthy, its keys re-routed to ring
// successors, and reprobed until it returns. Only the router fields of
// cfg and BatchWorkers apply (MaxBatch and AdmissionQueue seed the
// spill and shed defaults); Shards is the address count, and each shard
// process configures its own engine from its own flags.
func NewRemoteEngine(cfg EngineConfig, addrs []string) *Engine {
	backends := make([]cluster.Backend, len(addrs))
	for i, addr := range addrs {
		backends[i] = cluster.NewRemoteShard(transport.NewClient(addr, transport.ClientOptions{}))
	}
	return newEngine(cluster.NewWithBackends(cfg.routerOptions(), backends))
}

// routerOptions carries cfg's routing thresholds, batch concurrency,
// and the two batching knobs the spill and shed defaults derive from.
func (cfg EngineConfig) routerOptions() cluster.Options {
	return cluster.Options{
		Replicas:       cfg.Replicas,
		SpillHighWater: cfg.SpillHighWater,
		ShedLimit:      cfg.ShedLimit,
		Workers:        cfg.BatchWorkers,
		Batch: engine.BatchOptions{
			MaxBatch:   cfg.MaxBatch,
			QueueDepth: cfg.AdmissionQueue,
		},
	}
}

// newEngine instruments c in the process-wide registry and wraps it.
func newEngine(c *cluster.Cluster) *Engine {
	c.Instrument(obs.Default())
	return &Engine{c: c}
}

// Op selects what a batch Request computes.
type Op = engine.Op

// Batch operations: sort ascending, order statistics, or top-K.
const (
	OpSort        = engine.OpSort
	OpKthSmallest = engine.OpKthSmallest
	OpMedian      = engine.OpMedian
	OpTopK        = engine.OpTopK
)

// Request is one unit of batch work: a machine configuration, an
// operation, and its operands. Requests in one batch are independent and
// may freely mix configurations.
type Request struct {
	// Config is the machine configuration; Config.Trace must be nil.
	Config Config
	// Op selects the computation (default OpSort).
	Op Op
	// Keys is the input; it is not modified.
	Keys []Key
	// K is the 1-based rank for OpKthSmallest or the count for OpTopK.
	K int
}

// Result is one batch request's outcome. The payload field that matters
// follows the request's Op: Keys for OpSort and OpTopK, Value for
// OpKthSmallest and OpMedian. Err is per-request — see Stats for how to
// aggregate statistics over a batch.
//
// Direct reports which substrate served the request: false means a
// simulated machine measured Stats, true means the direct host-speed
// substrate sorted the keys and Stats is the analytic prediction (the
// §3 worst-case makespan and exact message/key/comparison counts; key
// hops are a lower bound under detour routing).
type Result struct {
	Keys   []Key
	Value  Key
	Stats  Stats
	Direct bool
	Err    error
}

// Close shuts down every shard's dispatch lanes (queued requests are
// drained and served first) and retires the persistent worker goroutines
// of its pooled machines; a remote engine closes its transport clients
// (the shard processes are not its to stop). Call it when done serving —
// typically on server shutdown, after in-flight requests have drained.
// The engine remains usable afterwards (requests fall back to the
// unbatched pool path and machines respawn workers on demand), so Close
// is a resource release, not a poison pill; it is idempotent and safe to
// defer at construction time.
func (e *Engine) Close() { e.c.Close() }

// EngineMetrics snapshots one engine shard's lifetime counters (or
// their sum across shards): requests served, plan-cache hits and
// misses, machines constructed (full builds versus pool-clone
// fast-paths), and the continuous-batching dispatcher's coalescing,
// rejection, and cancellation counts.
type EngineMetrics = engine.Metrics

// ClusterMetrics snapshots an engine's lifetime counters: the router's
// request/spill/shed/reroute totals, the shard-summed EngineMetrics in
// its Engine field, and each shard's own EngineMetrics.
type ClusterMetrics = cluster.Metrics

// Metrics returns a snapshot of the engine's lifetime counters.
func (e *Engine) Metrics() ClusterMetrics { return e.c.Metrics() }

// NumShards returns the number of engine shards behind the router.
func (e *Engine) NumShards() int { return e.c.NumShards() }

// HealthyShards counts shards currently reachable (always NumShards for
// in-process engines).
func (e *Engine) HealthyShards() int { return e.c.HealthyShards() }

// QueueWaitHint is the worst median queue wait any remote shard
// reported over the wire, in nanoseconds — the Retry-After signal for
// proxy mode. Always 0 for in-process engines (their queue wait is
// observed in the local histogram instead).
func (e *Engine) QueueWaitHint() int64 { return e.c.QueueWaitHint() }

// ShardFor returns the shard ids eligible to serve cfg: its home shard
// first, then its replica candidates in ring order. Deterministic for a
// given engine shape — useful for tests and capacity reasoning.
func (e *Engine) ShardFor(cfg Config) ([]int, error) {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return nil, err
	}
	return e.c.Candidates(ecfg), nil
}

// InjectFault arms live fault injections against cfg's machine pool on
// every shard — the router may serve the configuration from its home
// shard or, under load, any replica, so a drill must cover them all.
// The scheduled casualties strike runs of that configuration
// mid-kernel. The engine then recovers on its own — online diagnosis
// converges on the new fault set, the request replans through the plan
// cache, and the keys are redistributed over the surviving processors —
// so a Sort overlapping the casualty still returns the correctly sorted
// keys (or ErrUnrecoverable when the degraded machine admits no plan).
// Recovery activity is visible in Metrics and on /metrics
// (hypersort_engine_replans_total, hypersort_engine_recovery_latency_ns,
// ...). Chaos drills and tests are the intended callers.
func (e *Engine) InjectFault(cfg Config, injs ...Injection) error {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return err
	}
	return e.c.InjectFault(ecfg, injs...)
}

// DisarmFaults clears cfg's injection schedule on every shard, fired
// casualties included: the pools serve the configuration at full health
// again. Call only with no request in flight on the configuration.
func (e *Engine) DisarmFaults(cfg Config) error {
	ecfg, err := engineConfig(cfg)
	if err != nil {
		return err
	}
	return e.c.DisarmFaults(ecfg)
}

// Sort sorts keys ascending on the configured faulty hypercube, reusing
// the engine's cached plan and pooled machines for cfg — and, when other
// Sorts for the same configuration are in flight, fusing them into one
// machine run via the continuous-batching dispatcher. Safe for
// concurrent use.
func (e *Engine) Sort(cfg Config, keys []Key) ([]Key, Stats, error) {
	return e.SortContext(context.Background(), cfg, keys)
}

// SortContext is Sort with deadline and cancellation awareness: a
// request whose context is done before it acquires execution capacity
// returns promptly with the context's error (check with errors.Is). A
// context that expires after the simulated run started does not abort
// it.
func (e *Engine) SortContext(ctx context.Context, cfg Config, keys []Key) ([]Key, Stats, error) {
	res := e.doCtx(ctx, Request{Config: cfg, Op: OpSort, Keys: keys})
	return res.Keys, res.Stats, res.Err
}

// KthSmallest returns the k-th smallest key (1-based) via the engine.
func (e *Engine) KthSmallest(cfg Config, keys []Key, k int) (Key, Stats, error) {
	res := e.doCtx(context.Background(), Request{Config: cfg, Op: OpKthSmallest, Keys: keys, K: k})
	return res.Value, res.Stats, res.Err
}

// Median returns the lower median of keys via the engine.
func (e *Engine) Median(cfg Config, keys []Key) (Key, Stats, error) {
	res := e.doCtx(context.Background(), Request{Config: cfg, Op: OpMedian, Keys: keys})
	return res.Value, res.Stats, res.Err
}

// TopK returns the k largest keys in ascending order via the engine.
func (e *Engine) TopK(cfg Config, keys []Key, k int) ([]Key, Stats, error) {
	res := e.doCtx(context.Background(), Request{Config: cfg, Op: OpTopK, Keys: keys, K: k})
	return res.Keys, res.Stats, res.Err
}

// SortBatch executes the requests concurrently across the engine's
// machine pools and returns one Result per request, in request order.
// Errors are isolated: a request with a bad configuration, an impossible
// fault set, or invalid operands fails alone — every valid request in
// the batch still returns its result.
func (e *Engine) SortBatch(reqs []Request) []Result {
	return e.SortBatchContext(context.Background(), reqs)
}

// SortBatchContext is SortBatch with a shared context: requests still
// waiting for execution capacity when ctx is done return its error in
// their Result; requests already running complete normally.
func (e *Engine) SortBatchContext(ctx context.Context, reqs []Request) []Result {
	inner := make([]engine.Request, len(reqs))
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		ecfg, err := engineConfig(r.Config)
		if err != nil {
			errs[i] = err
			continue
		}
		inner[i] = engine.Request{Config: ecfg, Op: r.Op, Keys: r.Keys, K: r.K}
	}
	innerRes := e.c.BatchContext(ctx, inner)
	out := make([]Result, len(reqs))
	for i := range reqs {
		if errs[i] != nil {
			out[i] = Result{Err: errs[i]}
			continue
		}
		out[i] = Result{
			Keys:   innerRes[i].Keys,
			Value:  innerRes[i].Value,
			Stats:  statsOf(innerRes[i].Res),
			Direct: innerRes[i].Direct,
			Err:    innerRes[i].Err,
		}
	}
	return out
}

// doCtx runs one request through the engine under ctx.
func (e *Engine) doCtx(ctx context.Context, req Request) Result {
	ecfg, err := engineConfig(req.Config)
	if err != nil {
		return Result{Err: err}
	}
	res := e.c.DoContext(ctx, engine.Request{Config: ecfg, Op: req.Op, Keys: req.Keys, K: req.K})
	return Result{Keys: res.Keys, Value: res.Value, Stats: statsOf(res.Res), Direct: res.Direct, Err: res.Err}
}

// engineConfig converts the public Config, rejecting what an engine
// cannot serve.
func engineConfig(cfg Config) (engine.Config, error) {
	if cfg.Trace != nil {
		return engine.Config{}, fmt.Errorf("hypersort: Engine does not support Config.Trace; use a Sorter to trace a run")
	}
	return engine.Config{
		Dim:                 cfg.Dim,
		Faults:              cfg.Faults,
		LinkFaults:          cfg.LinkFaults,
		Model:               cfg.Model,
		Cost:                cfg.Cost,
		Protocol:            cfg.Protocol,
		AccountDistribution: cfg.AccountDistribution,
		Routing:             cfg.Routing,
	}, nil
}

// SumStats aggregates a batch's statistics: work counters sum over the
// successful results, and Makespan is the maximum — the batch's
// simulated critical path, since each request ran on an independent
// machine in parallel. Failed results contribute nothing.
func SumStats(results []Result) Stats {
	var agg Stats
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		agg.Messages += r.Stats.Messages
		agg.KeysSent += r.Stats.KeysSent
		agg.KeyHops += r.Stats.KeyHops
		agg.Comparisons += r.Stats.Comparisons
		if r.Stats.Makespan > agg.Makespan {
			agg.Makespan = r.Stats.Makespan
		}
	}
	return agg
}

package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// layerMetric is one per-layer metric: its name, unit, and a one-line
// description printed beside it in the table.
type layerMetric struct {
	name, unit, what string
}

// layerMetrics lists the per-layer metrics in table order, grouped by
// module.
var layerMetrics = []layerMetric{
	{"serve.floor_us", "us", "GET /healthz round trip: net/http + loopback floor"},
	{"serve.self_us", "us", "HTTP p50 - floor - backend call: JSON decode, validate, encode"},
	{"serve.req_bytes", "B", "request body per HTTP request"},
	{"serve.resp_bytes", "B", "response body per HTTP request"},
	{"hypersort.call_us", "us", "Engine.SortBatchContext, default serve EngineConfig (trace ring on)"},
	{"hypersort.allocs_per_call", "count", "heap allocations per facade call"},
	{"hypersort.bytes_per_call", "B", "heap bytes per facade call"},
	{"trace.observer_us", "us", "facade call with the trace ring minus without it"},
	{"engine.plan_lookup_us", "us", "warm Engine.Plan"},
	{"engine.self_us", "us", "facade call - plan lookup - the kernel that served it"},
	{"engine.plan_misses", "count", "plan searches in the timed phase (must be 0)"},
	{"engine.fused_per_batch", "ratio", "FusedRequests / FusedBatches in the timed phase"},
	{"engine.direct_share", "ratio", "DirectRequests / Requests in the timed phase"},
	{"engine.queue_wait_p50_us", "us", "median queue wait in the timed phase (proxy: the shards' own medians)"},
	{"partition.cold_plan_ms", "ms", "first Engine.Plan per config on a fresh engine"},
	{"direct.compile_us", "us", "direct.Compile of a plan's layout"},
	{"direct.sort_us", "us", "Exec.Sort"},
	{"direct.predict_us", "us", "Schedule.Predict"},
	{"direct.allocs_per_call", "count", "heap allocations per Exec.Sort"},
	{"core.ftsort_us", "us", "core.FTSortLayout on the simulator (trace hook on)"},
	{"core.allocs_per_call", "count", "heap allocations per FTSortLayout"},
	{"selection.kth_us", "us", "selection.KthSmallest on the simulator"},
	{"selection.median_us", "us", "selection.Median on the simulator"},
	{"selection.topk_us", "us", "selection.TopK on the simulator"},
	{"cluster.route_us", "us", "Cluster.Candidates"},
	{"cluster.self_us", "us", "Cluster.DoContext over RemoteShard - transport.rtt_us"},
	{"cluster.spills", "count", "router spills in the timed phase"},
	{"cluster.sheds", "count", "router sheds in the timed phase (must be 0)"},
	{"cluster.reroutes", "count", "router re-routes in the timed phase"},
	{"transport.codec_us", "us", "AppendRequest/DecodeFrame/AppendResult/DecodeFrame round trip"},
	{"transport.rtt_us", "us", "Client.Do to a live shard process"},
	{"transport.self_us", "us", "rtt - the shard's engine call"},
	{"trace_overhead_us", "us", "traced HTTP p50 - untraced HTTP p50 (the benchmark's own spans)"},
}

const (
	floorSamples = 2000 // GET /healthz round trips behind serve.floor_us
	traceSlices  = 6    // untraced/traced slice pairs in the HTTP part
)

// tracedRun is the traced variant: one set-up, a warm closed loop,
// alternating untraced and traced HTTP slices over two thirds of the
// run, the net/http floor, then in-process calls into every layer on the
// same inputs for about the last third.
func (b *bench) tracedRun(dur time.Duration) (result, error) {
	d, _, err := b.deploy()
	if err != nil {
		return result{}, err
	}
	clients := newClients(conns())
	warm := runLoad(clients, d.base+b.s.path, b.s, b.reqs, warmLoad, nil)
	// Untraced and traced slices alternate, so drift in the host's speed
	// does not masquerade as tracing overhead.
	tr := newTracer()
	var plain, traced phase
	_, delta, err := b.timedPhase(d, "traced-run HTTP", func() phase {
		slice := dur / 3 / traceSlices
		for i := 0; i < traceSlices; i++ {
			plain.add(runLoad(clients, d.base+b.s.path, b.s, b.reqs, slice, nil))
			traced.add(runLoad(clients, d.base+b.s.path, b.s, b.reqs, slice, tr))
		}
		return plain
	})
	closeClients(clients)
	if err != nil {
		return result{}, err
	}
	floor, err := healthzFloor(d.base, tr)
	if err != nil {
		return result{}, err
	}

	shards := d.shards
	if !b.s.proxy {
		procs, err := b.startShards()
		if err != nil {
			return result{}, err
		}
		for _, p := range procs {
			shards = append(shards, p.addr)
		}
	}
	lr, err := newLayerRun(b.s, b.reqs, tr, dur/3)
	if err != nil {
		return result{}, err
	}
	lm, err := lr.measure(shards)
	if err != nil {
		return result{}, err
	}
	if err := b.procs.stopAll(); err != nil {
		return result{}, err
	}

	p50, _ := quantile(plain.lat, 0.5)
	tp50, _ := quantile(traced.lat, 0.5)
	backend := lm["hypersort.call_us"]
	if b.s.proxy {
		backend = lm["_cluster_call_us"]
	}
	n := float64(max(plain.attempted, 1))
	lm["serve.floor_us"] = floor
	lm["serve.self_us"] = us(p50) - floor - backend
	lm["serve.req_bytes"] = float64(plain.reqBytes) / n
	lm["serve.resp_bytes"] = float64(plain.respBytes) / n
	lm["engine.plan_misses"] = float64(delta.planMisses)
	lm["engine.fused_per_batch"] = ratio(delta.fusedRequests, delta.fusedBatches)
	lm["engine.direct_share"] = ratio(delta.directRequests, delta.requests)
	lm["engine.queue_wait_p50_us"] = delta.queueWaitP50Ns / 1e3
	if b.s.proxy {
		lm["engine.queue_wait_p50_us"] = lm["_shard_queue_wait_us"]
	}
	lm["cluster.spills"] = float64(delta.spills)
	lm["cluster.sheds"] = float64(delta.sheds)
	lm["cluster.reroutes"] = float64(delta.reroutes)
	lm["trace_overhead_us"] = us(tp50) - us(p50)

	spanFile := filepath.Join(b.out, "spans-"+b.s.name+".jsonl")
	if err := tr.write(spanFile); err != nil {
		return result{}, err
	}
	m := map[string]metric{}
	fmt.Printf("workload %s, traced run: untraced HTTP p50 %.1fus, traced %.1fus, trace_overhead %+.1fus; %d spans in %s\n",
		b.s.name, us(p50), us(tp50), lm["trace_overhead_us"], len(tr.spans), spanFile)
	fmt.Printf("  %-26s %14s  %-5s  %s\n", "layer metric", "value", "unit", "definition")
	for _, lmDef := range layerMetrics {
		v, ok := lm[lmDef.name]
		if !ok {
			return result{}, fmt.Errorf("layer metric %s not measured", lmDef.name)
		}
		m[lmDef.name] = metric{v, lmDef.unit}
		fmt.Printf("  %-26s %14.3f  %-5s  %s\n", lmDef.name, v, lmDef.unit, lmDef.what)
	}
	return result{
		Correct:   plain.wrong == 0 && traced.wrong == 0 && warm.wrong == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   m,
	}, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// healthzFloor is the median GET /healthz round trip on one keep-alive
// connection: what net/http and loopback cost with no work behind them.
func healthzFloor(base string, tr *tracer) (float64, error) {
	client := newClients(1)[0]
	defer client.CloseIdleConnections()
	lat := make([]float64, 0, floorSamples)
	spans := make([]span, 0, floorSamples)
	for i := 0; i < floorSamples; i++ {
		start := time.Now()
		if _, err := getBody(client, base+"/healthz"); err != nil {
			return 0, err
		}
		end := time.Now()
		lat = append(lat, us(end.Sub(start)))
		spans = append(spans, span{ID: int64(i), Layer: "serve", Name: "GET /healthz", Start: tr.ns(start), End: tr.ns(end)})
	}
	tr.add(spans...)
	slices.Sort(lat)
	return lat[len(lat)/2], nil
}

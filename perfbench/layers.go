package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"hypersort"
	"hypersort/internal/cluster"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/direct"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/partition"
	"hypersort/internal/selection"
	"hypersort/internal/sortutil"
	"hypersort/internal/trace"
	"hypersort/internal/transport"
)

// stopwatch times calls into one layer and records each timed round as a
// span. A round repeats the call until it covers at least minRound, so
// sub-microsecond calls are not lost in clock overhead.
type stopwatch struct {
	tr     *tracer
	budget time.Duration // per measurement
	round  int64
}

const (
	minRound  = 20 * time.Microsecond
	minRounds = 5
	maxRounds = 2000
)

// median returns the median µs per call of fn, cycling i over [0, n).
func (sw *stopwatch) median(layer, name string, n int, fn func(i int)) float64 {
	t0 := time.Now()
	fn(0) // warm: caches, pools, lazily built state
	inner := 1
	if d := time.Since(t0); d < minRound {
		inner = int(minRound/max(d, 50*time.Nanosecond)) + 1
	}
	var samples []float64
	spans := make([]span, 0, minRounds)
	deadline := time.Now().Add(sw.budget)
	for r := 0; r < maxRounds && (r < minRounds || time.Now().Before(deadline)); r++ {
		start := time.Now()
		for j := 0; j < inner; j++ {
			fn((r*inner + j) % n)
		}
		end := time.Now()
		samples = append(samples, float64(end.Sub(start).Nanoseconds())/float64(inner)/1e3)
		sw.round++
		spans = append(spans, span{ID: sw.round, Layer: layer, Name: name, Start: sw.tr.ns(start), End: sw.tr.ns(end)})
	}
	sw.tr.add(spans...)
	return medianOf(samples)
}

// allocsPer returns heap allocations and bytes per call of fn over n
// calls, cycling i over [0, n). Allocations made by goroutines the call
// hands work to are included.
func allocsPer(calls int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls), float64(b.TotalAlloc-a.TotalAlloc) / float64(calls)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classInputs is one (config, op) class of a workload with its inputs
// and the per-class state the kernels run on.
type classInputs struct {
	lib []hypersort.Request
	eng []engine.Request
	res []engine.Result // the expected results, for the codec
	cfg *cfgState
}

// cfgState is the per-configuration state the kernel layers share.
type cfgState struct {
	ecfg    engine.Config
	plan    *partition.Plan
	layout  *core.Layout
	sched   *direct.Schedule
	exec    *direct.Exec
	machine *machine.Machine
}

func engineConfig(c cfgSpec) engine.Config {
	ec := engine.Config{Dim: c.Dim}
	for _, f := range c.Faults {
		ec.Faults = append(ec.Faults, cube.NodeID(f))
	}
	if c.Total {
		ec.Model = machine.Total
	}
	return ec
}

// layerRun is the in-process half of the traced run: the same inputs as
// the HTTP phases, sent straight into each module's public functions.
type layerRun struct {
	s       spec
	reqs    []httpReq
	sw      *stopwatch
	classes []*classInputs
	configs []*cfgState
	envs    [][]hypersort.Request // batch envelopes, batch workloads only
	err     error                 // the first failed call, if any
}

// keep records the first error a timed call returned; measure fails with
// it once the layers are timed.
func (lr *layerRun) keep(err error) {
	if err != nil && lr.err == nil {
		lr.err = err
	}
}

// perClassInputs caps the inputs each class cycles through.
const perClassInputs = 16

func newLayerRun(s spec, reqs []httpReq, tr *tracer, budget time.Duration) (*layerRun, error) {
	lr := &layerRun{s: s, reqs: reqs}
	traceRing := trace.NewRing(1<<16, 1)
	plans := engine.New(1, 1)
	defer plans.Close()
	for _, c := range s.configs {
		ecfg := engineConfig(c)
		plan, err := plans.Plan(ecfg)
		if err != nil {
			return nil, fmt.Errorf("plan %+v: %w", c, err)
		}
		cs := &cfgState{ecfg: ecfg, plan: plan, layout: core.NewLayout(plan)}
		cs.sched = direct.Compile(cs.layout)
		cs.exec = direct.NewExec(cs.sched)
		// The simulated kernels run on a machine with the same trace
		// hook default serve attaches, as the engine's pooled machines do.
		cs.machine, err = machine.New(machine.Config{Dim: c.Dim, Faults: cube.NewNodeSet(ecfg.Faults...), Model: ecfg.Model, Trace: traceRing.Record})
		if err != nil {
			return nil, err
		}
		lr.configs = append(lr.configs, cs)
	}
	lr.classes = make([]*classInputs, s.numClasses())
	for c := range lr.classes {
		lr.classes[c] = &classInputs{cfg: lr.configs[c/len(s.ops)]}
	}
	for _, hr := range reqs {
		if s.batch > 0 {
			env := make([]hypersort.Request, len(hr.subs))
			for i, sr := range hr.subs {
				env[i] = sr.libRequest()
			}
			lr.envs = append(lr.envs, env)
		}
		for _, sr := range hr.subs {
			ci := lr.classes[sr.class]
			if len(ci.lib) == perClassInputs {
				continue
			}
			lib := sr.libRequest()
			ci.lib = append(ci.lib, lib)
			ci.eng = append(ci.eng, engine.Request{Config: ci.cfg.ecfg, Op: lib.Op, Keys: lib.Keys, K: lib.K})
			res := engine.Result{Keys: libKeys(sr.want.Keys), Value: sortutil.Key(sr.want.Value)}
			ci.res = append(ci.res, res)
		}
	}
	// Count the measurements so the budget spreads evenly over them.
	n := len(lr.classes)*15 + len(lr.configs)*2
	lr.sw = &stopwatch{tr: tr, budget: budget / time.Duration(n)}
	return lr, nil
}

// measure times every layer and returns the per-layer figures by metric
// name. Names starting with "_" are inputs to derived figures, not
// reported metrics. shardAddrs are live shard processes for the cluster
// and transport layers.
func (lr *layerRun) measure(shardAddrs []string) (map[string]float64, error) {
	ctx := context.Background()
	sw := lr.sw
	out := map[string]float64{}
	nc := len(lr.classes)
	each := func(fn func(c int, ci *classInputs) float64) []float64 {
		v := make([]float64, nc)
		for c, ci := range lr.classes {
			v[c] = fn(c, ci)
		}
		return v
	}

	// hypersort: the facade engine default serve builds (trace ring on),
	// and the same engine without the ring for the observer cost.
	ring := trace.NewRing(1<<16, 1)
	engTr := hypersort.NewEngine(hypersort.EngineConfig{Mode: hypersort.ModeAuto, Trace: ring.Record})
	defer engTr.Close()
	engNo := hypersort.NewEngine(hypersort.EngineConfig{Mode: hypersort.ModeAuto})
	defer engNo.Close()
	directServed := make([]bool, nc)
	facade := func(eng *hypersort.Engine, reqs []hypersort.Request) {
		for _, r := range eng.SortBatchContext(ctx, reqs) {
			lr.keep(r.Err)
		}
	}
	// callPer times the facade per HTTP request's worth of work: one
	// request, or one whole envelope on batch workloads.
	callPer := func(eng *hypersort.Engine, name string) float64 {
		if lr.s.batch > 0 {
			return sw.median("hypersort", name, len(lr.envs), func(i int) { facade(eng, lr.envs[i]) })
		}
		return mean(each(func(_ int, ci *classInputs) float64 {
			return sw.median("hypersort", name, len(ci.lib), func(i int) { facade(eng, ci.lib[i:i+1]) })
		}))
	}
	for c, ci := range lr.classes {
		directServed[c] = engTr.SortBatchContext(ctx, ci.lib[:1])[0].Direct
	}
	callTr := callPer(engTr, "SortBatchContext")
	callNo := callPer(engNo, "SortBatchContext(trace off)")
	out["hypersort.call_us"] = callTr
	out["trace.observer_us"] = callTr - callNo
	var httpUnits [][]hypersort.Request
	if lr.s.batch > 0 {
		httpUnits = lr.envs
	} else {
		for _, ci := range lr.classes {
			for i := range ci.lib {
				httpUnits = append(httpUnits, ci.lib[i:i+1])
			}
		}
	}
	out["hypersort.allocs_per_call"], out["hypersort.bytes_per_call"] = allocsPer(max(16, len(httpUnits)), func(i int) {
		facade(engTr, httpUnits[i%len(httpUnits)])
	})

	// engine: warm plan-cache lookups.
	plans := engine.New(1, 1)
	defer plans.Close()
	planUs := each(func(_ int, ci *classInputs) float64 {
		return sw.median("engine", "Plan", 1, func(int) { _, _ = plans.Plan(ci.cfg.ecfg) })
	})
	out["engine.plan_lookup_us"] = mean(planUs)

	// partition: the first Plan per configuration on a fresh engine.
	var cold, compile []float64
	for _, cs := range lr.configs {
		var runs []float64
		for r := 0; r < minRounds; r++ {
			fresh := engine.New(1, 1)
			start := time.Now()
			_, err := fresh.Plan(cs.ecfg)
			end := time.Now()
			fresh.Close()
			if err != nil {
				return nil, err
			}
			sw.round++
			sw.tr.add(span{ID: sw.round, Layer: "partition", Name: "cold Plan", Start: sw.tr.ns(start), End: sw.tr.ns(end)})
			runs = append(runs, float64(end.Sub(start).Nanoseconds())/1e6)
		}
		cold = append(cold, medianOf(runs))
		compile = append(compile, sw.median("direct", "Compile", 1, func(int) { direct.Compile(cs.layout) }))
	}
	out["partition.cold_plan_ms"] = mean(cold)
	out["direct.compile_us"] = mean(compile)

	// direct: the host-speed kernel and its cost prediction.
	directSort := each(func(_ int, ci *classInputs) float64 {
		return sw.median("direct", "Exec.Sort", len(ci.lib), func(i int) {
			_, err := ci.cfg.exec.Sort(ci.lib[i].Keys)
			lr.keep(err)
		})
	})
	predict := each(func(_ int, ci *classInputs) float64 {
		return sw.median("direct", "Predict", len(ci.lib), func(i int) {
			_, err := ci.cfg.sched.Predict(len(ci.lib[i].Keys), ci.cfg.ecfg.Cost)
			lr.keep(err)
		})
	})
	out["direct.sort_us"] = mean(directSort)
	out["direct.predict_us"] = mean(predict)
	all := lr.flatInputs()
	out["direct.allocs_per_call"], _ = allocsPer(max(16, len(all)), func(i int) {
		in := all[i%len(all)]
		_, err := in.cfg.exec.Sort(in.keys)
		lr.keep(err)
	})

	// core and selection: the simulated kernels.
	ftsort := each(func(_ int, ci *classInputs) float64 {
		return sw.median("core", "FTSortLayout", len(ci.lib), func(i int) {
			_, _, err := core.FTSortLayout(ci.cfg.machine, ci.cfg.layout, ci.lib[i].Keys, core.Options{})
			lr.keep(err)
		})
	})
	out["core.ftsort_us"] = mean(ftsort)
	out["core.allocs_per_call"], _ = allocsPer(max(16, len(all)), func(i int) {
		in := all[i%len(all)]
		_, _, err := core.FTSortLayout(in.cfg.machine, in.cfg.layout, in.keys, core.Options{})
		lr.keep(err)
	})
	kth := each(func(_ int, ci *classInputs) float64 {
		return sw.median("selection", "KthSmallest", len(ci.lib), func(i int) {
			_, _, err := selection.KthSmallest(ci.cfg.machine, ci.cfg.plan, ci.lib[i].Keys, kthRank(ci.lib[i]))
			lr.keep(err)
		})
	})
	med := each(func(_ int, ci *classInputs) float64 {
		return sw.median("selection", "Median", len(ci.lib), func(i int) {
			_, _, err := selection.Median(ci.cfg.machine, ci.cfg.plan, ci.lib[i].Keys)
			lr.keep(err)
		})
	})
	topk := each(func(_ int, ci *classInputs) float64 {
		return sw.median("selection", "TopK", len(ci.lib), func(i int) {
			_, _, err := selection.TopK(ci.cfg.machine, ci.cfg.plan, ci.lib[i].Keys, topkCount(ci.lib[i]))
			lr.keep(err)
		})
	})
	out["selection.kth_us"] = mean(kth)
	out["selection.median_us"] = mean(med)
	out["selection.topk_us"] = mean(topk)

	// engine self time: the facade call minus the plan lookup and the
	// kernel that served each request (direct, or the simulated one).
	kernel := make([]float64, nc)
	for c, ci := range lr.classes {
		switch {
		case directServed[c]:
			kernel[c] = directSort[c] + predict[c]
		case ci.lib[0].Op == hypersort.OpKthSmallest:
			kernel[c] = kth[c]
		case ci.lib[0].Op == hypersort.OpMedian:
			kernel[c] = med[c]
		case ci.lib[0].Op == hypersort.OpTopK:
			kernel[c] = topk[c]
		default:
			kernel[c] = ftsort[c]
		}
		kernel[c] += planUs[c]
	}
	// Each HTTP request carries len(subs) requests, spread evenly over
	// the classes.
	out["engine.self_us"] = callTr - mean(kernel)*float64(len(lr.reqs[0].subs))

	lr.measureRemote(ctx, shardAddrs, out)
	if lr.err != nil {
		return nil, fmt.Errorf("layer call failed: %w", lr.err)
	}
	return out, nil
}

// measureRemote times the cluster router and the wire transport against
// live shard processes, and the shard's own engine call in-process.
func (lr *layerRun) measureRemote(ctx context.Context, shardAddrs []string, out map[string]float64) {
	sw := lr.sw
	clients := make([]*transport.Client, len(shardAddrs))
	backends := make([]cluster.Backend, len(shardAddrs))
	for i, a := range shardAddrs {
		clients[i] = transport.NewClient(a, transport.ClientOptions{})
		backends[i] = cluster.NewRemoteShard(clients[i])
	}
	cl := cluster.NewWithBackends(cluster.Options{Replicas: -1}, backends)
	defer cl.Close() // closes the transport clients
	cl.Instrument(obs.NewRegistry())

	// The engine a shard process builds with default flags.
	ring := trace.NewRing(1<<16, 1)
	shardEng := engine.NewOpts(0, 0, engine.BatchOptions{})
	defer shardEng.Close()
	shardEng.SetMode(engine.ModeAuto)
	shardEng.SetTrace(machine.TraceFunc(ring.Record))
	shardEng.Instrument(obs.NewRegistry())

	var route, clusterSelf, rtt, transportSelf, codec, clusterCall []float64
	var reqBuf, resBuf []byte
	var reqFrame, resFrame transport.Frame
	for _, ci := range lr.classes {
		home := cl.Candidates(ci.cfg.ecfg)[0]
		route = append(route, sw.median("cluster", "Candidates", 1, func(int) { cl.Candidates(ci.cfg.ecfg) }))
		callUs := sw.median("cluster", "DoContext", len(ci.eng), func(i int) { lr.keep(cl.DoContext(ctx, ci.eng[i]).Err) })
		rttUs := sw.median("transport", "Client.Do", len(ci.eng), func(i int) { lr.keep(clients[home].Do(ctx, ci.eng[i]).Err) })
		shardUs := sw.median("engine", "shard DoDirect/DoContext", len(ci.eng), func(i int) {
			res, ok := shardEng.DoDirect(ci.eng[i])
			if !ok {
				res = shardEng.DoContext(ctx, ci.eng[i])
			}
			lr.keep(res.Err)
		})
		codec = append(codec, sw.median("transport", "codec round trip", len(ci.eng), func(i int) {
			reqBuf = transport.AppendRequest(reqBuf[:0], 1, ci.eng[i], 0)
			lr.keep(transport.DecodeFrame(&reqFrame, reqBuf[4:]))
			resBuf = transport.AppendResult(resBuf[:0], 1, ci.res[i], transport.Feedback{})
			lr.keep(transport.DecodeFrame(&resFrame, resBuf[4:]))
		}))
		clusterCall = append(clusterCall, callUs)
		rtt = append(rtt, rttUs)
		clusterSelf = append(clusterSelf, callUs-rttUs)
		transportSelf = append(transportSelf, rttUs-shardUs)
	}
	out["cluster.route_us"] = mean(route)
	out["cluster.self_us"] = mean(clusterSelf)
	out["transport.rtt_us"] = mean(rtt)
	out["transport.self_us"] = mean(transportSelf)
	out["transport.codec_us"] = mean(codec)
	out["_cluster_call_us"] = mean(clusterCall)
	// The shards' own median queue wait from their feedback trailers: the
	// only view of it a proxy has.
	out["_shard_queue_wait_us"] = float64(cl.QueueWaitHint()) / 1e3
}

// flatInput is one key set with the configuration state it runs on.
type flatInput struct {
	keys []hypersort.Key
	cfg  *cfgState
}

func (lr *layerRun) flatInputs() []flatInput {
	var all []flatInput
	for _, ci := range lr.classes {
		for _, r := range ci.lib {
			all = append(all, flatInput{keys: r.Keys, cfg: ci.cfg})
		}
	}
	return all
}

// kthRank is the request's own rank for kth requests, else the median rank.
func kthRank(r hypersort.Request) int {
	if r.Op == hypersort.OpKthSmallest {
		return r.K
	}
	return len(r.Keys)/2 + 1
}

// topkCount is the request's own count for topk requests, else 16.
func topkCount(r hypersort.Request) int {
	if r.Op == hypersort.OpTopK {
		return r.K
	}
	return min(16, len(r.Keys))
}

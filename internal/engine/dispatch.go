package engine

// Continuous-batching dispatcher. Concurrent simulated sort requests
// (direct-eligible sorts never reach a lane; see Engine.do) that share a
// machine configuration land in one dispatch lane; the lane's dispatcher
// gathers whatever is queued (up to MaxBatch, optionally lingering up to
// MaxLinger for stragglers), leases ONE machine, and executes the whole
// batch as a fused machine.Session run: K kernels back-to-back per node,
// one worker handoff, one WaitGroup round-trip, one lease. Under load
// the batch size adapts automatically — while the pool is saturated the
// queue grows, and the next free machine takes everything waiting — the
// same feedback loop as continuous batching in inference serving.
//
// Admission is bounded: a lane's queue holds at most QueueDepth
// requests, and an arrival finding it full is rejected immediately with
// ErrAdmissionRejected (the service's backpressure signal; cmd/serve
// maps it to 503). A queued request whose context is cancelled before a
// batch claims it returns promptly with the context error.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hypersort/internal/bitonic"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
)

// ErrAdmissionRejected is reported (wrapped) in Result.Err when a
// request arrives at a dispatch lane whose bounded admission queue is
// full. It is the engine's backpressure signal: the caller should shed
// or retry with backoff rather than pile deeper.
var ErrAdmissionRejected = errors.New("engine: admission queue full")

// errClosed reports an acquire interrupted by engine shutdown.
var errClosed = errors.New("engine: closed")

// BatchOptions tunes the continuous-batching dispatcher.
type BatchOptions struct {
	// Disabled routes every request through the unbatched pool path,
	// turning coalescing off entirely (the pool-only baseline).
	Disabled bool
	// MaxBatch caps how many requests one fused dispatch may carry.
	// Values < 1 select the default (8).
	MaxBatch int
	// MaxLinger is how long a dispatcher holding a partial batch waits
	// for more arrivals before executing. 0 (the default) dispatches
	// immediately — batches then form only while the pool is saturated,
	// which is the continuous-batching steady state and adds no latency
	// when idle. Positive values trade first-request latency for larger
	// batches at low concurrency.
	MaxLinger time.Duration
	// QueueDepth bounds each lane's admission queue; an arrival finding
	// it full is rejected with ErrAdmissionRejected. Values < 1 select
	// the default (256).
	QueueDepth int
}

const (
	defaultMaxBatch   = 8
	defaultQueueDepth = 256
)

// laneKey identifies one dispatch lane: everything that must match for
// two sort requests to be fusable into one machine run — the plan (and
// thus dim/faults/model), the cost model (pool identity), and the
// kernel-shaping options.
type laneKey struct {
	pk                  partition.PlanKey
	cost                machine.CostModel
	protocol            bitonic.Protocol
	accountDistribution bool
}

// Item claim states: the submitting goroutine and the dispatcher race to
// settle a queued item's fate with one CAS — a dispatcher claims it for
// execution, or a cancelled waiter claims it for abandonment.
const (
	itemQueued int32 = iota
	itemClaimed
	itemCancelled
)

// item is one queued request: the work, the waiter's rendezvous, and the
// claim/cancel state machine. Items recycle through the engine's pool —
// the waiter returns its item after consuming the done signal (the
// runner touches a finished item never again), EXCEPT on the
// cancelled-while-queued path: there the dispatcher may still hold the
// pointer in a forming batch, where a recycled item's reset state would
// let the claim CAS succeed against the wrong lifecycle, so cancelled
// items are simply dropped to the garbage collector.
type item struct {
	req   Request
	state atomic.Int32
	done  chan struct{} // 1-buffered; the runner sends after res is written
	res   Result
	enq   time.Time // when the item entered its lane queue
}

// finish delivers res to the item's waiter. Call at most once, and only
// after winning the claim CAS. The buffered send never blocks: each
// lifecycle has exactly one finish and one receive.
func (it *item) finish(res Result) {
	it.res = res
	it.done <- struct{}{}
}

// getItem readies a pooled (or fresh) item for req.
func (e *Engine) getItem(req Request) *item {
	it, _ := e.items.Get().(*item)
	if it == nil {
		it = &item{done: make(chan struct{}, 1)}
	}
	it.req = req
	it.state.Store(itemQueued)
	it.res = Result{}
	it.enq = time.Now()
	return it
}

// putItem recycles an item whose done signal has been consumed.
func (e *Engine) putItem(it *item) {
	it.req = Request{}
	it.res = Result{}
	e.items.Put(it)
}

// lane is one (plan, config) dispatch lane: a bounded queue of
// compatible sort requests and the dispatcher goroutine that drains it
// into fused runs. cfg is a canonical configuration for the lane (every
// fusable request yields the same pool and kernels), entry its resolved
// plan — lanes are only created for successfully planned
// configurations.
type lane struct {
	e     *Engine
	key   laneKey
	cfg   Config
	entry *planEntry
	q     chan *item

	// perNodeFree recycles Result.PerNode maps across this lane's
	// batches, preserving the pool path's buffer-reuse behaviour (and
	// its documented aliasing rule: a Result's PerNode is valid until
	// the engine serves another request on the same configuration).
	mu          sync.Mutex
	perNodeFree []map[cube.NodeID]machine.Time

	// scratch recycles the per-batch assembly buffers (runs, kernels,
	// results, ...) across this lane's fused runs. A sync.Pool rather
	// than a single buffer because a lane may have several batches in
	// flight when the machine pool holds more than one machine.
	scratch sync.Pool
}

// batchScratch is one fused run's assembly state, pooled per lane so the
// steady-state dispatch path allocates nothing per batch. fusedIdx maps
// sub-run k to its index in the batch's live slice (prep-failed requests
// drop out of the fused sequence but keep their live slot).
type batchScratch struct {
	runs     []*core.SortRun
	kernels  []machine.Kernel
	fusedIdx []int
	results  []machine.Result
	perNode  []map[cube.NodeID]machine.Time
	// free holds SortRuns retired by earlier batches: the lane serves a
	// single configuration, so a finished run's arenas can be re-armed
	// for the next request with SortRun.Reuse instead of rebuilding the
	// distribution from scratch. Owned by whichever batch holds this
	// scratch, so no locking.
	free []*core.SortRun
}

// reslice readies the scratch for a batch of n requests, reusing the
// retained capacity.
func (sc *batchScratch) reslice(n int) {
	sc.runs = sc.runs[:0]
	sc.kernels = sc.kernels[:0]
	sc.fusedIdx = sc.fusedIdx[:0]
	if cap(sc.results) < n {
		sc.results = make([]machine.Result, n)
		sc.perNode = make([]map[cube.NodeID]machine.Time, n)
	} else {
		sc.results = sc.results[:n]
		sc.perNode = sc.perNode[:n]
	}
}

// recycle retires the batch's SortRuns into the scratch's freelist for
// the next batch to Reuse, drops the remaining references, and returns
// the scratch to the lane's pool.
func (ln *lane) recycle(sc *batchScratch) {
	sc.free = append(sc.free, sc.runs...)
	clear(sc.runs)
	clear(sc.kernels)
	for i := range sc.results {
		sc.results[i] = machine.Result{}
	}
	clear(sc.perNode)
	ln.scratch.Put(sc)
}

// laneFor returns the dispatch lane for key, creating it (and its
// dispatcher goroutine) on first use. entry must be a successfully
// planned entry for the key.
func (e *Engine) laneFor(key laneKey, cfg Config, entry *planEntry) *lane {
	e.mu.Lock()
	defer e.mu.Unlock()
	ln, ok := e.lanes[key]
	if !ok {
		ln = &lane{e: e, key: key, cfg: cfg, entry: entry, q: make(chan *item, e.batch.QueueDepth)}
		e.lanes[key] = ln
		e.wg.Add(1)
		go ln.dispatch()
	}
	return ln
}

// submit routes a sort request through its dispatch lane and waits for
// the result. handled is false when the engine is closed (the caller
// falls back to the unbatched path). Rejection (queue full) and
// cancellation while queued are both reported in the Result with
// handled=true.
func (e *Engine) submit(ctx context.Context, key partition.PlanKey, cfg Config, entry *planEntry, req Request) (Result, bool) {
	ln := e.laneFor(laneKey{
		pk:                  key,
		cost:                cfg.Cost,
		protocol:            cfg.Protocol,
		accountDistribution: cfg.AccountDistribution,
	}, cfg, entry)
	it := e.getItem(req)

	// The closed flag is read under closeMu so no item can slip into a
	// queue after Close started draining: Close flips the flag before
	// the drain, and every in-flight submit holding the read lock has
	// either enqueued (the drain will serve it) or will observe closed.
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return Result{}, false
	}
	select {
	case ln.q <- it:
		e.closeMu.RUnlock()
	default:
		e.closeMu.RUnlock()
		e.rejected.Add(1)
		if e.em != nil {
			e.em.AdmissionRejected.Inc()
		}
		return Result{Err: fmt.Errorf("engine: %w (lane holds %d requests)", ErrAdmissionRejected, e.batch.QueueDepth)}, true
	}
	if e.em != nil {
		e.em.QueueDepth.Add(1)
	}

	if ctx.Done() == nil {
		// Uncancellable context (the Do path): a plain receive parks
		// without the select machinery — measurably cheaper at high
		// request rates.
		<-it.done
		res := it.res
		e.putItem(it)
		return res, true
	}
	select {
	case <-it.done:
		res := it.res
		e.putItem(it)
		return res, true
	case <-ctx.Done():
		if it.state.CompareAndSwap(itemQueued, itemCancelled) {
			// Won the race against the dispatcher: the item will be
			// skipped when its batch forms; nothing to clean up (the
			// item itself is NOT recycled — see item).
			e.cancelled.Add(1)
			if e.em != nil {
				e.em.Cancelled.Inc()
				e.em.QueueDepth.Add(-1)
			}
			return Result{Err: fmt.Errorf("engine: cancelled while queued: %w", ctx.Err())}, true
		}
		// A batch already claimed the item; the result is imminent.
		<-it.done
		res := it.res
		e.putItem(it)
		return res, true
	}
}

// dispatch is the lane's dispatcher loop: block for the first queued
// item, gather a batch around it, lease one machine, and execute the
// batch as a fused run.
//
// With more than one machine in the pool the batch runs on its own
// goroutine and the dispatcher immediately goes back to gathering, so
// the next batch forms while the current one executes. With a
// single-machine pool that overlap cannot exist — the next acquire would
// block until this very batch releases the lease — so the dispatcher
// runs the batch inline, saving a goroutine handoff per batch on the
// critical path (and reusing one batch buffer forever).
func (ln *lane) dispatch() {
	e := ln.e
	defer e.wg.Done()
	inline := e.poolSize == 1
	var linger *time.Timer
	var buf []*item // reused across batches on the inline path only
	for {
		select {
		case <-e.stop:
			ln.drain()
			return
		case first := <-ln.q:
			batch := ln.gather(append(buf[:0], first), &linger)
			pl := e.poolFor(poolKey{pk: ln.key.pk, cost: ln.key.cost}, ln.cfg)
			l, err := pl.acquire(context.Background(), e.stop)
			// Top up with everything that queued while we waited for the
			// machine: this acquire-then-gather order is what makes the
			// batch size track pool saturation — a busy pool means a long
			// wait means a deep queue, and the freed machine takes all of
			// it (up to MaxBatch) in one fused run.
			batch = ln.topUp(batch)
			if err != nil {
				// Shutdown (or a template build failure): serve the batch
				// without fusion and keep draining.
				for _, it := range batch {
					if ln.claim(it) {
						it.finish(e.doUnbatched(context.Background(), ln.key.pk, ln.cfg, ln.entry, it.req))
					}
				}
				continue
			}
			if e.em != nil {
				e.em.PoolInUse.Add(1)
			}
			e.wg.Add(1) // the dispatcher's own wg slot keeps Close's Wait pending, so this Add cannot race it
			if inline {
				ln.run(pl, l, batch)
				clear(batch)
				buf = batch[:0]
			} else {
				go ln.run(pl, l, batch)
				buf = nil // ownership moved to the runner
			}
		}
	}
}

// gather extends batch up to MaxBatch with whatever the queue holds,
// lingering up to MaxLinger (one timer for the whole batch) when the
// queue runs dry early.
func (ln *lane) gather(batch []*item, linger **time.Timer) []*item {
	max := ln.e.batch.MaxBatch
	armed := false
loop:
	for len(batch) < max {
		select {
		case it := <-ln.q:
			batch = append(batch, it)
			continue
		default:
		}
		if ln.e.batch.MaxLinger <= 0 {
			break
		}
		if !armed {
			if *linger == nil {
				*linger = time.NewTimer(ln.e.batch.MaxLinger)
			} else {
				(*linger).Reset(ln.e.batch.MaxLinger)
			}
			armed = true
		}
		select {
		case it := <-ln.q:
			batch = append(batch, it)
		case <-(*linger).C:
			armed = false
			break loop
		case <-ln.e.stop:
			break loop // shutdown: dispatch what we have, then drain
		}
	}
	if armed && !(*linger).Stop() {
		<-(*linger).C
	}
	return batch
}

// topUp extends batch to MaxBatch with whatever the queue holds right
// now, without waiting.
func (ln *lane) topUp(batch []*item) []*item {
	for len(batch) < ln.e.batch.MaxBatch {
		select {
		case it := <-ln.q:
			batch = append(batch, it)
		default:
			return batch
		}
	}
	return batch
}

// claim attempts to take a queued item for execution, updating the
// queue-side metrics. False means the waiter cancelled first.
func (ln *lane) claim(it *item) bool {
	e := ln.e
	if !it.state.CompareAndSwap(itemQueued, itemClaimed) {
		return false
	}
	if e.em != nil {
		e.em.QueueDepth.Add(-1)
		e.em.QueueWait.Observe(time.Since(it.enq).Nanoseconds())
	}
	return true
}

// run executes one gathered batch as a fused session run on the leased
// machine, delivers every item's result, and releases the lease.
func (ln *lane) run(pl *pool, l *lease, batch []*item) {
	e := ln.e
	var live []*item
	defer func() {
		pl.release(l)
		if e.em != nil {
			e.em.PoolInUse.Add(-1)
		}
		if r := recover(); r != nil {
			// Backstop: a panic in batch assembly must not strand
			// waiters. Kernel panics never reach here (the machine
			// converts them to errors), so this is defensive. Finished
			// items are nil'd out of live immediately — their waiters
			// may already have recycled them, so touching a finished
			// item here would corrupt an unrelated lifecycle.
			err := fmt.Errorf("engine: fused batch panicked: %v", r)
			for _, it := range live {
				if it != nil {
					it.finish(Result{Err: err})
				}
			}
		}
		e.wg.Done()
	}()

	live = batch[:0]
	for _, it := range batch {
		if ln.claim(it) {
			live = append(live, it)
		}
	}
	if len(live) == 0 {
		return
	}
	e.fusedBat.Add(1)
	e.fusedReq.Add(int64(len(live)))
	if e.em != nil {
		e.em.FusedBatches.Inc()
		e.em.FusedRequests.Add(int64(len(live)))
		e.em.BatchSize.Observe(int64(len(live)))
	}

	layout := ln.entry.layout
	sess, err := l.m.OpenSession(layout.Working)
	if err != nil {
		for i, it := range live {
			it.finish(Result{Err: err})
			live[i] = nil
		}
		return
	}

	sc, _ := ln.scratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	sc.reslice(len(live))

	// Prepare each request's run — re-arming a retired SortRun from the
	// freelist when one is available (the lane serves one configuration,
	// so every retired run's layout matches). A preparation failure (bad
	// keys) fails only its own request, exactly like the unbatched path.
	for i, it := range live {
		var r *core.SortRun
		var err error
		if n := len(sc.free); n > 0 {
			r = sc.free[n-1]
			sc.free[n-1] = nil
			sc.free = sc.free[:n-1]
			err = r.Reuse(it.req.Keys)
		} else {
			r, err = core.NewSortRun(l.m, layout, it.req.Keys, core.Options{
				Protocol:            ln.cfg.Protocol,
				AccountDistribution: ln.cfg.AccountDistribution,
				Phases:              e.phases,
			})
		}
		if err != nil {
			it.finish(Result{Err: err})
			live[i] = nil
			continue
		}
		sc.runs = append(sc.runs, r)
		sc.kernels = append(sc.kernels, r.Kernel())
		sc.fusedIdx = append(sc.fusedIdx, i)
	}
	if len(sc.fusedIdx) == 0 {
		sess.Close()
		ln.recycle(sc)
		return
	}

	results := sc.results[:len(sc.fusedIdx)]
	perNode := sc.perNode[:len(sc.fusedIdx)]
	ln.mu.Lock()
	for i := range perNode {
		if n := len(ln.perNodeFree); n > 0 {
			perNode[i] = ln.perNodeFree[n-1]
			ln.perNodeFree = ln.perNodeFree[:n-1]
		} else {
			perNode[i] = nil
		}
	}
	ln.mu.Unlock()

	completed, err := sess.RunBatch(sc.kernels, results, perNode)
	sess.Close()

	for k := 0; k < completed; k++ {
		li := sc.fusedIdx[k]
		live[li].finish(Result{Keys: sc.runs[k].Gather(), Res: results[k]})
		live[li] = nil
	}
	if err != nil {
		// Sub-run `completed` failed with err; later sub-runs were never
		// attempted. Fail the culprit and re-run the rest individually on
		// this lease — per-request error isolation, same as Batch. An
		// injected casualty instead routes the culprit through recovery,
		// and the individual re-runs fail fast at the dead node's first
		// operation and recover the same way.
		if e.em != nil {
			e.em.AbortedSubRuns.Add(int64(len(sc.fusedIdx) - completed))
		}
		if completed < len(sc.fusedIdx) {
			li := sc.fusedIdx[completed]
			res := Result{Err: err}
			if machine.IsInjectedDeath(err) {
				res = e.recoverFrom(context.Background(), l.m, live[li].req, err)
			}
			live[li].finish(res)
			live[li] = nil
		}
		for _, li := range sc.fusedIdx[completed+1:] {
			res := e.runOnLease(l, ln.entry, live[li].req)
			if res.Err != nil && machine.IsInjectedDeath(res.Err) {
				res = e.recoverFrom(context.Background(), l.m, live[li].req, res.Err)
			}
			live[li].finish(res)
			live[li] = nil
		}
	}

	// Recycle the PerNode maps: completed sub-runs carry theirs in the
	// Result (reused on the next batch, per the documented aliasing
	// rule); unused input buffers go straight back.
	ln.mu.Lock()
	for k := range sc.fusedIdx {
		if k < completed {
			if results[k].PerNode != nil {
				ln.perNodeFree = append(ln.perNodeFree, results[k].PerNode)
			}
		} else if perNode[k] != nil {
			ln.perNodeFree = append(ln.perNodeFree, perNode[k])
		}
	}
	ln.mu.Unlock()
	ln.recycle(sc)
}

// drain serves everything still queued when the engine closes, on the
// dispatcher goroutine via the unbatched path, so no waiter is stranded.
func (ln *lane) drain() {
	e := ln.e
	for {
		select {
		case it := <-ln.q:
			if ln.claim(it) {
				it.finish(e.doUnbatched(context.Background(), ln.key.pk, ln.cfg, ln.entry, it.req))
			}
		default:
			return
		}
	}
}

package engine

import (
	"slices"
	"sync"
	"testing"

	"hypersort/internal/bitonic"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// directTestKeys generates a deterministic mixed workload.
func directTestKeys(n int, seed uint64) []sortutil.Key {
	return workload.MustGenerate(workload.Uniform, n, xrand.New(seed))
}

// TestModeDirectServesSortsWithoutMachines pins the tentpole contract:
// in ModeDirect an eligible sort is served by the direct substrate —
// same sorted output as a simulated engine, a predicted Result, the
// Direct flag set, and no simulated machine ever constructed.
func TestModeDirectServesSortsWithoutMachines(t *testing.T) {
	cfg := Config{Dim: 4, Faults: []cube.NodeID{0, 7, 9}}
	keys := directTestKeys(700, 1)

	dEng := New(1, 1)
	defer dEng.Close()
	dEng.SetMode(ModeDirect)
	dRes := dEng.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if dRes.Err != nil {
		t.Fatal(dRes.Err)
	}
	if !dRes.Direct {
		t.Fatal("ModeDirect sort did not set Result.Direct")
	}

	sEng := New(1, 1)
	defer sEng.Close()
	sRes := sEng.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if sRes.Err != nil {
		t.Fatal(sRes.Err)
	}
	if sRes.Direct {
		t.Fatal("default-mode sort set Result.Direct")
	}
	if !slices.Equal(dRes.Keys, sRes.Keys) {
		t.Fatal("direct output differs from simulated output")
	}

	m := dEng.Metrics()
	if m.MachinesBuilt != 0 || m.MachinesCloned != 0 {
		t.Errorf("direct engine built %d machines (cloned %d), want 0", m.MachinesBuilt, m.MachinesCloned)
	}
	if m.DirectRequests != 1 {
		t.Errorf("DirectRequests = %d, want 1", m.DirectRequests)
	}
	if n := poolCount(dEng); n != 0 {
		t.Errorf("%d machine pools created, want 0", n)
	}
	if dRes.Res.Makespan <= 0 || dRes.Res.Comparisons <= 0 {
		t.Errorf("predicted Result looks empty: %+v", dRes.Res)
	}
}

// TestModeDirectIneligibleOps pins the eligibility rules: selection ops,
// the half-exchange protocol, and distribution accounting all stay on
// the simulator even in ModeDirect.
func TestModeDirectIneligibleOps(t *testing.T) {
	e := New(1, 1)
	defer e.Close()
	e.SetMode(ModeDirect)
	cfg := Config{Dim: 3, Faults: []cube.NodeID{2}}
	keys := directTestKeys(200, 2)

	if res := e.Do(Request{Config: cfg, Op: OpMedian, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	} else if res.Direct {
		t.Error("selection op served direct")
	}
	half := cfg
	half.Protocol = bitonic.HalfExchange
	if res := e.Do(Request{Config: half, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	} else if res.Direct {
		t.Error("half-exchange sort served direct")
	}
	acct := cfg
	acct.AccountDistribution = true
	if res := e.Do(Request{Config: acct, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	} else if res.Direct {
		t.Error("AccountDistribution sort served direct")
	}
	if m := e.Metrics(); m.DirectRequests != 0 {
		t.Errorf("DirectRequests = %d, want 0", m.DirectRequests)
	}
	if m := e.Metrics(); m.MachinesBuilt == 0 {
		t.Error("ineligible requests built no machines — they cannot have simulated")
	}
}

// TestDirectChaosFallback pins the armed-chaos invariant: the simulator
// is the only execution path while injections are armed, and disarming
// restores direct service without rebuilding anything.
func TestDirectChaosFallback(t *testing.T) {
	e := New(1, 1)
	defer e.Close()
	e.SetMode(ModeDirect)
	cfg := Config{Dim: 3}
	keys := directTestKeys(300, 3)

	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil || !res.Direct {
		t.Fatalf("pre-arm sort: direct=%v err=%v", res.Direct, res.Err)
	}
	// Arm a kill far in the virtual future: the run recovers or completes
	// — either way it must run on the simulator.
	if err := e.InjectFault(cfg, machine.Injection{Kind: machine.KillNode, Node: 5, At: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Direct {
		t.Fatal("sort served direct while chaos injections were armed")
	}
	if err := e.DisarmFaults(cfg); err != nil {
		t.Fatal(err)
	}
	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil || !res.Direct {
		t.Fatalf("post-disarm sort: direct=%v err=%v", res.Direct, res.Err)
	}
	if m := e.Metrics(); m.DirectRequests != 2 {
		t.Errorf("DirectRequests = %d, want 2 (pre-arm and post-disarm only)", m.DirectRequests)
	}
}

// TestDirectTraceKeepsSubstrate pins that tracing does not pick the
// substrate: with an engine-wide trace hook attached a direct-mode sort
// still runs direct, returns the same keys and prediction as an
// untraced engine, and replays its schedule into the hook — one event
// per working processor plus one per compare-split pair.
func TestDirectTraceKeepsSubstrate(t *testing.T) {
	cfg := Config{Dim: 4, Faults: []cube.NodeID{0, 7, 9}}
	keys := directTestKeys(120, 4)

	var mu sync.Mutex
	var events []machine.TraceEvent
	traced := New(1, 1)
	defer traced.Close()
	traced.SetTrace(func(ev machine.TraceEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	traced.SetMode(ModeDirect)
	got := traced.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if !got.Direct {
		t.Fatal("traced direct-mode sort left the direct substrate")
	}

	plain := New(1, 1)
	defer plain.Close()
	plain.SetMode(ModeDirect)
	want := plain.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if !slices.Equal(got.Keys, want.Keys) || got.Res.Makespan != want.Res.Makespan || got.Res.KeyHops != want.Res.KeyHops {
		t.Fatal("attaching a trace hook changed the direct result")
	}

	key := traced.planKey(cfg)
	entry, err := traced.plan(key, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch := entry.schedule()
	if len(events) != sch.NumPairs()+sch.P() {
		t.Fatalf("trace hook saw %d events, want NumPairs+P = %d", len(events), sch.NumPairs()+sch.P())
	}
	if last := events[len(events)-1].Time; last != got.Res.Makespan {
		t.Errorf("last event at %d, predicted makespan %d", last, got.Res.Makespan)
	}
	if m := traced.Metrics(); m.MachinesBuilt != 0 {
		t.Errorf("traced direct engine built %d machines, want 0", m.MachinesBuilt)
	}
}

// TestDirectOracleSampling exercises the shadow-oracle loop: with
// SetOracleSample(1) every direct result is re-executed on a simulated
// machine and cross-checked. Zero parity breaks expected, and the
// sampled runs must show up in both Metrics and the obs bundle.
func TestDirectOracleSampling(t *testing.T) {
	e := New(1, 1)
	defer e.Close()
	reg := obs.NewRegistry()
	e.Instrument(reg)
	e.SetMode(ModeDirect)
	e.SetOracleSample(1)
	cfg := Config{Dim: 4, Faults: []cube.NodeID{5}}
	for i := 0; i < 8; i++ {
		res := e.Do(Request{Config: cfg, Op: OpSort, Keys: directTestKeys(150+i, uint64(i))})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.Direct {
			t.Fatal("oracle-sampled sort lost its Direct flag")
		}
	}
	m := e.Metrics()
	if m.OracleRuns != 8 {
		t.Errorf("OracleRuns = %d, want 8", m.OracleRuns)
	}
	if m.ParityBreaks != 0 {
		t.Errorf("ParityBreaks = %d, want 0", m.ParityBreaks)
	}
	if m.MachinesBuilt == 0 {
		t.Error("oracle sampling built no simulated machine")
	}
}

// TestModeDirectUnbatched covers the single-request route: an eligible
// sort takes the direct substrate straight from do(), building no
// machine.
func TestModeDirectUnbatched(t *testing.T) {
	e := New(1, 1)
	defer e.Close()
	e.SetMode(ModeDirect)
	cfg := Config{Dim: 4}
	keys := directTestKeys(500, 5)
	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Direct {
		t.Fatal("eligible sort not served direct")
	}
	m := e.Metrics()
	if m.MachinesBuilt != 0 {
		t.Errorf("MachinesBuilt = %d, want 0", m.MachinesBuilt)
	}
	if m.DirectRequests != 1 {
		t.Errorf("DirectRequests = %d, want 1", m.DirectRequests)
	}
}

// poolCount reports how many machine pools e has created.
func poolCount(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pools)
}

// TestDirectSortsBypassLanes drives concurrent direct-mode sorts at one
// configuration and checks that do() serves every one inline on the
// direct substrate: all sorted, no machine built, and no machine pool
// ever created.
func TestDirectSortsBypassLanes(t *testing.T) {
	e := New(1, 8)
	defer e.Close()
	e.SetMode(ModeDirect)
	cfg := Config{Dim: 4, Faults: []cube.NodeID{3}}

	const n = 64
	reqs := make([]Request, n)
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := range reqs {
		reqs[i] = Request{Config: cfg, Op: OpSort, Keys: directTestKeys(400, uint64(i))}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Do(reqs[i])
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !res.Direct {
			t.Fatalf("request %d not served direct", i)
		}
		want := slices.Clone(reqs[i].Keys)
		slices.Sort(want)
		if !slices.Equal(res.Keys, want) {
			t.Fatalf("request %d mis-sorted", i)
		}
	}
	m := e.Metrics()
	if m.DirectRequests != n {
		t.Errorf("DirectRequests = %d, want %d", m.DirectRequests, n)
	}
	if m.MachinesBuilt != 0 {
		t.Errorf("MachinesBuilt=%d, want 0 (inline direct path)", m.MachinesBuilt)
	}
	if n := poolCount(e); n != 0 {
		t.Errorf("%d machine pools created, want 0", n)
	}
}

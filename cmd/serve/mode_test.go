package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hypersort"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/direct"
	"hypersort/internal/partition"
	"hypersort/internal/trace"
)

// TestServeParseMode pins the -mode flag vocabulary: the two
// substrates parse, anything else — the retired "auto" included — is a
// startup error.
func TestServeParseMode(t *testing.T) {
	cases := []struct {
		in      string
		want    hypersort.ExecMode
		wantErr bool
	}{
		{"sim", hypersort.ModeSim, false},
		{"direct", hypersort.ModeDirect, false},
		{"auto", 0, true},
		{"", 0, true},
		{"Direct", 0, true},
		{"turbo", 0, true},
	}
	for _, c := range cases {
		got, err := parseMode(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseMode(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseMode(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("parseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// newModeServer stands up the handler set over an engine in the given
// execution mode with tracing off — the `serve -mode=... -trace-buf 0`
// configuration.
func newModeServer(t *testing.T, mode hypersort.ExecMode) (*httptest.Server, *hypersort.Engine) {
	t.Helper()
	return newModeServerRing(t, mode, nil)
}

// newModeServerRing is newModeServer with a trace ring attached (nil
// for none).
func newModeServerRing(t *testing.T, mode hypersort.ExecMode, ring *trace.Ring) (*httptest.Server, *hypersort.Engine) {
	t.Helper()
	ecfg := hypersort.EngineConfig{PoolSize: 1, BatchWorkers: 2, Mode: mode}
	if ring != nil {
		ecfg.Trace = ring.Record
	}
	eng := hypersort.NewEngine(ecfg)
	srv := httptest.NewServer(newMux(eng, ring, true, hypersort.RouteECube))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

// postSort drives one /v1/sort request and decodes the wire result.
func postSort(t *testing.T, srv *httptest.Server, body string) (int, wireResult) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res wireResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, res
}

// TestServeDirectMode drives a sort through a -mode=direct server and
// checks the full wire contract: 200, sorted keys, "direct":true, and
// predicted stats present — with the engine's direct counters moving
// and visible on /v1/metrics.
func TestServeDirectMode(t *testing.T) {
	srv, eng := newModeServer(t, hypersort.ModeDirect)
	status, res := postSort(t, srv, sortBody(4, []int64{3, 9}, 128))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if res.Err != "" {
		t.Fatalf("sort failed: %s", res.Err)
	}
	if !res.Direct {
		t.Fatal(`direct-mode sort response missing "direct":true`)
	}
	if len(res.Keys) != 128 {
		t.Fatalf("got %d keys, want 128", len(res.Keys))
	}
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i] < res.Keys[i-1] {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	if res.Stats.Comparisons == 0 || res.Stats.Makespan == 0 {
		t.Fatalf("predicted stats missing: %+v", res.Stats)
	}
	if m := eng.Metrics().Engine; m.DirectRequests != 1 || m.MachinesBuilt != 0 {
		t.Fatalf("DirectRequests=%d MachinesBuilt=%d, want 1 and 0", m.DirectRequests, m.MachinesBuilt)
	}

	// The counter must ride along on the JSON metrics endpoint.
	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var body struct {
		Engine struct {
			DirectRequests int64
		} `json:"engine"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Engine.DirectRequests != 1 {
		t.Fatalf("/v1/metrics engine.DirectRequests = %d, want 1", body.Engine.DirectRequests)
	}
}

// TestServeDirectModeErrorContract pins that switching substrates does
// not shift the error surface: unservable configurations still answer
// 422 with a JSON error body in -mode=direct.
func TestServeDirectModeErrorContract(t *testing.T) {
	srv, _ := newModeServer(t, hypersort.ModeDirect)
	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(`{"dim":99,"keys":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body["error"] == "" || body["error"] == nil {
		t.Fatalf("error body missing 'error' field: %v", body)
	}
}

// TestServeAutoModeChaosFallback is the serve-level armed-chaos
// invariant: a direct-mode server with a trace ring — the default
// serve configuration — serves direct until a
// /v1/chaos/inject arms a casualty on the configuration, then every
// sort runs on the simulator (no "direct" flag, no direct-counter
// movement) until /v1/chaos/disarm stands the drill down.
func TestServeAutoModeChaosFallback(t *testing.T) {
	srv, eng := newModeServerRing(t, hypersort.ModeDirect, trace.NewRing(1024, 1))
	body := sortBody(4, nil, 96)

	status, res := postSort(t, srv, body)
	if status != http.StatusOK || res.Err != "" {
		t.Fatalf("pre-arm sort: status %d err %q", status, res.Err)
	}
	if !res.Direct {
		t.Fatal("traced direct-mode sort not served direct")
	}
	if m := eng.Metrics().Engine; m.DirectRequests != 1 {
		t.Fatalf("pre-arm DirectRequests = %d, want 1", m.DirectRequests)
	}

	// Arm a kill far in the virtual future: it never fires, but while
	// armed the simulator must be the only execution path.
	inject := fmt.Sprintf(`{"dim":4,"kill_node":5,"at":%d}`, int64(1)<<40)
	resp, err := http.Post(srv.URL+"/v1/chaos/inject", "application/json", strings.NewReader(inject))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject status %d", resp.StatusCode)
	}

	status, res = postSort(t, srv, body)
	if status != http.StatusOK || res.Err != "" {
		t.Fatalf("armed sort: status %d err %q", status, res.Err)
	}
	if res.Direct {
		t.Fatal("sort served direct while chaos injections were armed")
	}
	if m := eng.Metrics().Engine; m.DirectRequests != 1 {
		t.Fatalf("armed DirectRequests = %d, want 1 (simulator must serve armed configs)", m.DirectRequests)
	}

	resp, err = http.Post(srv.URL+"/v1/chaos/disarm", "application/json", strings.NewReader(`{"dim":4}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disarm status %d", resp.StatusCode)
	}

	status, res = postSort(t, srv, body)
	if status != http.StatusOK || res.Err != "" {
		t.Fatalf("post-disarm sort: status %d err %q", status, res.Err)
	}
	if !res.Direct {
		t.Fatal("direct service did not resume after disarm")
	}
	if m := eng.Metrics().Engine; m.DirectRequests != 2 {
		t.Fatalf("post-disarm DirectRequests = %d, want 2", m.DirectRequests)
	}
}

// TestServeSimModeNeverDirect pins -mode=sim as the historical
// behaviour: no request carries the direct flag even though it would
// be eligible.
func TestServeSimModeNeverDirect(t *testing.T) {
	srv, eng := newModeServer(t, hypersort.ModeSim)
	status, res := postSort(t, srv, sortBody(3, nil, 64))
	if status != http.StatusOK || res.Err != "" {
		t.Fatalf("sort: status %d err %q", status, res.Err)
	}
	if res.Direct {
		t.Fatal("sim-mode sort carried the direct flag")
	}
	if m := eng.Metrics().Engine; m.DirectRequests != 0 || m.MachinesBuilt == 0 {
		t.Fatalf("DirectRequests=%d MachinesBuilt=%d, want 0 and >0", m.DirectRequests, m.MachinesBuilt)
	}
}

// TestServeTraceKeepsDirectBytes pins that attaching a trace ring
// changes neither the substrate nor any output byte: the same bodies
// posted to a server with a ring and to one without come back
// byte-identical, both "direct":true.
func TestServeTraceKeepsDirectBytes(t *testing.T) {
	ring := trace.NewRing(1<<12, 1)
	traced, tracedEng := newModeServerRing(t, hypersort.ModeDirect, ring)
	plain, _ := newModeServer(t, hypersort.ModeDirect)
	bodies := []string{
		sortBody(2, nil, 16),
		sortBody(2, []int64{3}, 16),
		sortBody(4, []int64{5}, 700),
		sortBody(5, []int64{3, 5, 16, 24}, 4096),
		sortBody(6, []int64{3, 17, 40}, 1000),
	}
	for _, body := range bodies {
		got, want := postRaw(t, traced, body), postRaw(t, plain, body)
		if !bytes.Equal(got, want) {
			t.Fatalf("traced response differs from untraced:\n%s\nvs\n%s", got, want)
		}
		if !bytes.Contains(got, []byte(`"direct":true`)) {
			t.Fatalf("response not served direct: %s", got)
		}
	}
	if m := tracedEng.Metrics().Engine; m.DirectRequests != int64(len(bodies)) || m.MachinesBuilt != 0 {
		t.Fatalf("traced engine: DirectRequests=%d MachinesBuilt=%d, want %d and 0", m.DirectRequests, m.MachinesBuilt, len(bodies))
	}
	if ring.Seen() == 0 {
		t.Fatal("traced direct sorts offered no events to the ring")
	}
}

// postRaw posts body to /v1/sort and returns the raw 200 response body.
func postRaw(t *testing.T, srv *httptest.Server, body string) []byte {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return b
}

// TestServeTraceShowsDirectRounds pins that /v1/trace observes the
// direct path: after one direct sort the ring holds exactly the
// schedule's replay — one compute row per working processor and one
// send row per compare-split pair, tagged by round.
func TestServeTraceShowsDirectRounds(t *testing.T) {
	ring := trace.NewRing(1<<12, 1)
	srv, _ := newModeServerRing(t, hypersort.ModeDirect, ring)
	faults := []int64{3, 5, 16, 24}
	if _, res := postSort(t, srv, sortBody(5, faults, 640)); !res.Direct {
		t.Fatal("sort not served direct")
	}
	plan, err := partition.BuildPlan(5, cube.NewNodeSet(3, 5, 16, 24))
	if err != nil {
		t.Fatal(err)
	}
	sch := direct.Compile(core.NewLayout(plan))

	resp, err := http.Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Tag  *int64 `json:"tag"`
				Keys *int   `json:"keys"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	k := (640 + sch.P() - 1) / sch.P()
	var compute, send int
	maxTag := int64(-1)
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "compute":
			compute++
		case "send":
			send++
			if ev.Args.Tag == nil || ev.Args.Keys == nil || *ev.Args.Keys != k {
				t.Fatalf("send row lacks its round tag or share size %d: %+v", k, ev.Args)
			}
			maxTag = max(maxTag, *ev.Args.Tag)
		}
	}
	if compute != sch.P() || send != sch.NumPairs() {
		t.Fatalf("trace holds %d compute and %d send rows, want %d and %d", compute, send, sch.P(), sch.NumPairs())
	}
	if maxTag != int64(sch.NumRounds()-1) {
		t.Fatalf("last round tag %d, want %d", maxTag, sch.NumRounds()-1)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hypersort"
	"hypersort/internal/trace"
)

// TestServeParseMode pins the -mode flag vocabulary: the three
// substrates parse, anything else is a startup error.
func TestServeParseMode(t *testing.T) {
	cases := []struct {
		in      string
		want    hypersort.ExecMode
		wantErr bool
	}{
		{"sim", hypersort.ModeSim, false},
		{"direct", hypersort.ModeDirect, false},
		{"auto", hypersort.ModeAuto, false},
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
// configuration, which is the one where auto serves direct.
func newModeServer(t *testing.T, mode hypersort.ExecMode) (*httptest.Server, *hypersort.Engine) {
	t.Helper()
	eng := hypersort.NewEngine(hypersort.EngineConfig{PoolSize: 1, BatchWorkers: 2, Mode: mode})
	srv := httptest.NewServer(newMux(eng, nil, true, hypersort.RouteECube))
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
// invariant: an auto-mode server (tracing off) serves direct until a
// /v1/chaos/inject arms a casualty on the configuration, then every
// sort runs on the simulator (no "direct" flag, no direct-counter
// movement) until /v1/chaos/disarm stands the drill down.
func TestServeAutoModeChaosFallback(t *testing.T) {
	srv, eng := newModeServer(t, hypersort.ModeAuto)
	body := sortBody(4, nil, 96)

	status, res := postSort(t, srv, body)
	if status != http.StatusOK || res.Err != "" {
		t.Fatalf("pre-arm sort: status %d err %q", status, res.Err)
	}
	if !res.Direct {
		t.Fatal("auto-mode sort without tracing not served direct")
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

// TestServeAutoModeTracedServesSim pins the documented default: with a
// trace ring attached (the default serve configuration) auto mode
// faithfully serves the simulator, because direct runs emit no machine
// events for /v1/trace.
func TestServeAutoModeTracedServesSim(t *testing.T) {
	ring := trace.NewRing(1024, 1)
	eng := hypersort.NewEngine(hypersort.EngineConfig{PoolSize: 1, BatchWorkers: 2, Mode: hypersort.ModeAuto, Trace: ring.Record})
	srv := httptest.NewServer(newMux(eng, ring, false, hypersort.RouteECube))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	status, res := postSort(t, srv, sortBody(3, nil, 64))
	if status != http.StatusOK || res.Err != "" {
		t.Fatalf("sort: status %d err %q", status, res.Err)
	}
	if res.Direct {
		t.Fatal("traced auto-mode sort served direct")
	}
	if m := eng.Metrics().Engine; m.DirectRequests != 0 {
		t.Fatalf("DirectRequests = %d, want 0", m.DirectRequests)
	}
}

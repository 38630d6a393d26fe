package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"hypersort"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// cfgSpec is one machine configuration a workload cycles through.
type cfgSpec struct {
	Dim    int
	Faults []int64
	Total  bool // fault model "total" (default "partial")
}

// spec describes one workload: what the closed loop sends and why.
type spec struct {
	name    string
	why     string
	path    string // "/v1/sort" or "/v1/batch"
	proxy   bool   // serve through -cluster-mode=proxy in front of shards
	batch   int    // requests per /v1/batch envelope; 0 = one request per POST
	keys    int    // keys per request
	bodies  int    // distinct pre-encoded HTTP bodies, cycled by the loop
	configs []cfgSpec
	ops     []string
}

// e20Ladder is the degradation ladder of the E20 throughput mix: a
// healthy Q_2 down to one surviving processor.
var e20Ladder = []cfgSpec{
	{Dim: 2},
	{Dim: 2, Faults: []int64{3}},
	{Dim: 2, Faults: []int64{2, 3}},
	{Dim: 1, Faults: []int64{1}},
}

var specs = []spec{
	{
		name: "small-sorts", path: "/v1/sort", keys: 16, bodies: 256,
		configs: e20Ladder, ops: []string{"sort"},
		why: "16-key sorts on the E20 degradation ladder: per-request work (HTTP, JSON, plan lookup, dispatch) dominates the kernel",
	},
	{
		name: "bulk-sorts", path: "/v1/sort", keys: 4096, bodies: 48,
		configs: []cfgSpec{
			{Dim: 4, Faults: []int64{5}},
			{Dim: 5, Faults: []int64{3, 5, 16, 24}},
			{Dim: 6, Faults: []int64{3, 17, 40}},
		},
		ops: []string{"sort"},
		why: "4096-key sorts incl. the paper's Example 1: per-key work dominates (JSON number coding, copies, kernel, GC)",
	},
	{
		name: "batch-mixed-ops", path: "/v1/batch", batch: 32, keys: 512, bodies: 16,
		configs: []cfgSpec{
			{Dim: 4, Faults: []int64{0, 1, 2}},
			{Dim: 5, Faults: []int64{3, 17}},
			{Dim: 4, Faults: []int64{5}, Total: true},
			{Dim: 5, Faults: []int64{0, 12, 25, 31}},
		},
		ops: []string{"sort", "kth", "median", "topk"},
		why: "32-request envelopes mixing sort/kth/median/topk: batch fan-out, lane fusion, pool leasing, selection protocols",
	},
	{
		name: "proxy-small-sorts", path: "/v1/sort", proxy: true, keys: 16, bodies: 256,
		configs: e20Ladder, ops: []string{"sort"},
		why: "small-sorts' inputs through the front proxy and 2 shard processes: transport and remote routing cost",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// subReq is one generated engine request with its expected answer.
type subReq struct {
	class int // index into the workload's (config, op) classes
	cfg   cfgSpec
	op    string
	k     int
	keys  []int64
	want  answer
}

// answer is the expected outcome of one sub-request, computed by the
// benchmark from its own inputs: Keys for sort and topk, Value for kth
// and median.
type answer struct {
	Keys  []int64
	Value int64
}

// httpReq is one pre-encoded HTTP request and what its response must say.
type httpReq struct {
	body []byte
	subs []subReq
	// snippets are the exact payload fields ("keys":[...] or "value":N)
	// a correct response carries, in order: the checker's fast path.
	snippets [][]byte
}

// wireReq mirrors cmd/serve's JSON request shape.
type wireReq struct {
	Dim    int     `json:"dim"`
	Faults []int64 `json:"faults,omitempty"`
	Model  string  `json:"model,omitempty"`
	Op     string  `json:"op,omitempty"`
	K      int     `json:"k,omitempty"`
	Keys   []int64 `json:"keys"`
}

func (s spec) numClasses() int { return len(s.configs) * len(s.ops) }

// classOf maps a sub-request's position in the stream to its (config,
// op) class. Configurations cycle fastest and ops change every
// len(configs) requests, so every pairing appears.
func (s spec) classOf(i int) (cfgIdx, opIdx int) {
	return i % len(s.configs), (i / len(s.configs)) % len(s.ops)
}

// generate builds the workload's HTTP bodies from seed. The same seed
// yields byte-identical bodies; the server sees nothing else.
func generate(s spec, seed uint64) ([]httpReq, error) {
	rng := xrand.New(seed)
	per := s.batch
	if per == 0 {
		per = 1
	}
	out := make([]httpReq, s.bodies)
	n := 0
	for b := range out {
		hr := httpReq{subs: make([]subReq, per)}
		wires := make([]wireReq, per)
		for j := range hr.subs {
			ci, oi := s.classOf(n)
			n++
			sr := subReq{class: ci*len(s.ops) + oi, cfg: s.configs[ci], op: s.ops[oi]}
			keys, err := workload.Generate(workload.Uniform, s.keys, rng)
			if err != nil {
				return nil, err
			}
			sr.keys = make([]int64, len(keys))
			for i, k := range keys {
				sr.keys[i] = int64(k)
			}
			switch sr.op {
			case "kth":
				sr.k = 1 + rng.IntN(s.keys)
			case "topk":
				sr.k = 1 + rng.IntN(64)
			}
			sr.want = expected(sr.op, sr.keys, sr.k)
			hr.subs[j] = sr
			hr.snippets = append(hr.snippets, snippet(sr.op, sr.want))
			wires[j] = sr.wire()
		}
		var err error
		if s.batch == 0 {
			hr.body, err = json.Marshal(wires[0])
		} else {
			hr.body, err = json.Marshal(struct {
				Requests []wireReq `json:"requests"`
			}{wires})
		}
		if err != nil {
			return nil, fmt.Errorf("encode body: %w", err)
		}
		out[b] = hr
	}
	return out, nil
}

func (sr subReq) wire() wireReq {
	w := wireReq{Dim: sr.cfg.Dim, Faults: sr.cfg.Faults, K: sr.k, Keys: sr.keys}
	if sr.cfg.Total {
		w.Model = "total"
	}
	if sr.op != "sort" {
		w.Op = sr.op
	}
	return w
}

// expected computes the answer to op over keys from the keys alone.
func expected(op string, keys []int64, k int) answer {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	switch op {
	case "kth":
		return answer{Value: sorted[k-1]}
	case "median":
		return answer{Value: sorted[(len(sorted)-1)/2]}
	case "topk":
		return answer{Keys: sorted[len(sorted)-k:]}
	}
	return answer{Keys: sorted}
}

// snippet is the canonical JSON payload field a correct response holds.
func snippet(op string, a answer) []byte {
	if op == "kth" || op == "median" {
		return strconv.AppendInt([]byte(`"value":`), a.Value, 10)
	}
	b := append([]byte(nil), `"keys":[`...)
	for i, k := range a.Keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, k, 10)
	}
	return append(b, ']')
}

// libRequest converts a sub-request to the library's request type, the
// form the in-process layer timings call with.
func (sr subReq) libRequest() hypersort.Request {
	return hypersort.Request{Config: sr.libConfig(), Op: libOp(sr.op), Keys: libKeys(sr.keys), K: sr.k}
}

func (sr subReq) libConfig() hypersort.Config {
	cfg := hypersort.Config{Dim: sr.cfg.Dim}
	for _, f := range sr.cfg.Faults {
		cfg.Faults = append(cfg.Faults, hypersort.NodeID(f))
	}
	if sr.cfg.Total {
		cfg.Model = hypersort.Total
	}
	return cfg
}

func libOp(op string) hypersort.Op {
	switch op {
	case "kth":
		return hypersort.OpKthSmallest
	case "median":
		return hypersort.OpMedian
	case "topk":
		return hypersort.OpTopK
	}
	return hypersort.OpSort
}

func libKeys(keys []int64) []hypersort.Key {
	out := make([]hypersort.Key, len(keys))
	for i, k := range keys {
		out[i] = hypersort.Key(k)
	}
	return out
}

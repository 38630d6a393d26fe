package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// engineCounters are the /v1/metrics "engine" fields the layer table reads.
type engineCounters struct {
	Requests          int64
	PlanMisses        int64
	FusedBatches      int64
	FusedRequests     int64
	DirectRequests    int64
	AdmissionRejected int64
}

type histSnap struct {
	Count   int64            `json:"count"`
	Buckets map[string]int64 `json:"buckets"`
}

// snapshot is one reading of a server's /v1/metrics and /metrics.
type snapshot struct {
	Engine engineCounters `json:"engine"`
	Memory struct {
		TotalAllocBytes int64 `json:"total_alloc_bytes"`
	} `json:"memory"`
	Registry struct {
		QueueWait histSnap `json:"hypersort_engine_queue_wait_ns"`
	} `json:"registry"`
	Cluster struct {
		Spills, Sheds, Reroutes int64
	} `json:"cluster"`
	prom map[string]float64 // /metrics series, "name{labels}" -> value
}

func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// readCounters snapshots the HTTP-facing process's counters.
func readCounters(client *http.Client, base string) (snapshot, error) {
	var s snapshot
	body, err := getBody(client, base+"/v1/metrics")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return s, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	if body, err = getBody(client, base+"/metrics"); err != nil {
		return s, err
	}
	s.prom = parseProm(body)
	return s, nil
}

// parseProm reads Prometheus text exposition into series -> value.
func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// counterDelta is what happened between two snapshots: the per-layer
// counts of one timed phase.
type counterDelta struct {
	requests       int64
	planMisses     int64
	fusedBatches   int64
	fusedRequests  int64
	directRequests int64
	allocBytes     int64
	queueWaitP50Ns float64
	spills, sheds  int64
	reroutes       int64
	admissionRej   int64
}

func diffCounters(a, b snapshot) counterDelta {
	d := counterDelta{
		requests:       b.Engine.Requests - a.Engine.Requests,
		planMisses:     b.Engine.PlanMisses - a.Engine.PlanMisses,
		fusedBatches:   b.Engine.FusedBatches - a.Engine.FusedBatches,
		fusedRequests:  b.Engine.FusedRequests - a.Engine.FusedRequests,
		directRequests: b.Engine.DirectRequests - a.Engine.DirectRequests,
		allocBytes:     b.Memory.TotalAllocBytes - a.Memory.TotalAllocBytes,
		spills:         b.Cluster.Spills - a.Cluster.Spills,
		sheds:          b.Cluster.Sheds - a.Cluster.Sheds,
		reroutes:       b.Cluster.Reroutes - a.Cluster.Reroutes,
	}
	d.queueWaitP50Ns = histDeltaMedian(a.Registry.QueueWait, b.Registry.QueueWait)
	// A shed or refusal counts if either view saw it.
	if s := int64(b.prom["hypersort_cluster_sheds_total"] - a.prom["hypersort_cluster_sheds_total"]); s > d.sheds {
		d.sheds = s
	}
	d.admissionRej = b.Engine.AdmissionRejected - a.Engine.AdmissionRejected
	if r := int64(b.prom["hypersort_engine_admission_rejected_total"] - a.prom["hypersort_engine_admission_rejected_total"]); r > d.admissionRej {
		d.admissionRej = r
	}
	return d
}

// histDeltaMedian estimates the median of the observations made between
// two snapshots of a power-of-two histogram (bucket le covers (le/2, le],
// bucket 1 covers [0, 1]), interpolating linearly inside the bucket that
// holds it. It returns 0 if there were no observations.
func histDeltaMedian(a, b histSnap) float64 {
	n := b.Count - a.Count
	if n <= 0 {
		return 0
	}
	type bucket struct {
		key string
		ub  float64
	}
	buckets := make([]bucket, 0, len(b.Buckets))
	for k := range b.Buckets {
		if ub, err := strconv.ParseFloat(k, 64); err == nil {
			buckets = append(buckets, bucket{k, ub})
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].ub < buckets[j].ub })
	half := float64(n) / 2
	var seen float64
	for _, bk := range buckets {
		c := float64(b.Buckets[bk.key] - a.Buckets[bk.key])
		if c > 0 && seen+c >= half {
			lo := 0.0
			if bk.ub > 1 {
				lo = bk.ub / 2
			}
			return lo + (bk.ub-lo)*(half-seen)/c
		}
		seen += c
	}
	return 0
}

// checkQuiet fails the run when warm-up leaked into the timed phase (a
// plan search) or admission interfered (a shed or a refused request).
func (d counterDelta) checkQuiet(phase string) error {
	if d.planMisses != 0 || d.sheds != 0 || d.admissionRej != 0 {
		return fmt.Errorf("%s phase not steady: engine.plan_misses=%d cluster.sheds=%d admission_rejected=%d",
			phase, d.planMisses, d.sheds, d.admissionRej)
	}
	return nil
}

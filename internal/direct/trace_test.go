package direct

import (
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// TestTraceMatchesPrediction replays every torture-parity plan shape
// through Trace and holds the events to the schedule and to Predict:
// NumPairs()+P() events, P() compute events carrying the heapsort
// charge, send hops summing to KeyHops/(2k), round tags in schedule
// order, non-decreasing times, and a last event at exactly Predict's
// Makespan — under the paper's unit costs and the NCUBE-era default.
func TestTraceMatchesPrediction(t *testing.T) {
	shapes := append(parityConfigs(),
		parityConfig{name: "q2-healthy", dim: 2},
		parityConfig{name: "q2-f3", dim: 2, faults: []cube.NodeID{3}},
	)
	costs := []machine.CostModel{{}, machine.DefaultCostModel()}
	for _, pc := range shapes {
		t.Run(pc.name, func(t *testing.T) {
			rg := buildRig(t, pc)
			sch := rg.sch
			for _, n := range []int{0, 17, 256, 4096} {
				for _, cost := range costs {
					pred, err := sch.Predict(n, cost)
					if err != nil {
						t.Fatal(err)
					}
					k := int(sch.shareSize(n))
					var events []machine.TraceEvent
					if err := sch.Trace(n, cost, func(ev machine.TraceEvent) { events = append(events, ev) }); err != nil {
						t.Fatal(err)
					}
					if len(events) != sch.NumPairs()+sch.P() {
						t.Fatalf("n=%d: %d events, want NumPairs+P = %d", n, len(events), sch.NumPairs()+sch.P())
					}
					var hops int64
					var compute int
					tag := machine.Tag(0)
					for i, ev := range events {
						if i > 0 && ev.Time < events[i-1].Time {
							t.Fatalf("n=%d: event %d at %d precedes event %d at %d", n, i, ev.Time, i-1, events[i-1].Time)
						}
						switch ev.Kind {
						case machine.TraceCompute:
							compute++
							if i >= sch.P() || ev.Keys != int(heapCost(int64(k))) || ev.Node != rg.layout.Working[i] {
								t.Fatalf("n=%d: compute event %d = %+v", n, i, ev)
							}
						case machine.TraceSend:
							if ev.Keys != k || ev.Tag < tag || ev.Tag > tag+1 {
								t.Fatalf("n=%d: send event %d = %+v (k=%d, previous tag %d)", n, i, ev, k, tag)
							}
							tag = ev.Tag
							hops += int64(ev.Hops)
						default:
							t.Fatalf("n=%d: unexpected %v event", n, ev.Kind)
						}
					}
					if compute != sch.P() {
						t.Fatalf("n=%d: %d compute events, want P = %d", n, compute, sch.P())
					}
					if sch.NumRounds() > 0 && int(tag) != sch.NumRounds()-1 {
						t.Fatalf("n=%d: last round tag %d, want %d", n, tag, sch.NumRounds()-1)
					}
					if want := pred.KeyHops / int64(2*k); hops != want {
						t.Errorf("n=%d: send hops sum to %d, want KeyHops/(2k) = %d", n, hops, want)
					}
					if last := events[len(events)-1].Time; last != pred.Makespan {
						t.Errorf("n=%d cost=%+v: last event at %d, Predict makespan %d", n, cost, last, pred.Makespan)
					}
				}
			}
		})
	}
}

// TestTraceErrors covers Trace's validation path.
func TestTraceErrors(t *testing.T) {
	rg := buildRig(t, parityConfig{name: "q3", dim: 3})
	if err := rg.sch.Trace(-1, machine.CostModel{}, func(machine.TraceEvent) {}); err == nil {
		t.Error("negative key count accepted")
	}
}

// TestSortAllocatesOnlyOutput pins the inline path's allocation budget:
// below the parallel threshold a warm executor's Sort allocates the
// returned slice and nothing else.
func TestSortAllocatesOnlyOutput(t *testing.T) {
	for _, pc := range parityConfigs() {
		rg := buildRig(t, pc)
		for _, n := range []int{16, 4096} {
			keys := workload.MustGenerate(workload.Uniform, n, xrand.New(uint64(n)))
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := rg.exec.Sort(keys); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Errorf("%s/%d keys: Sort allocates %v times per call, want 1 (the output)", pc.name, n, allocs)
			}
		}
	}
}

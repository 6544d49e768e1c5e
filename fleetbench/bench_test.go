package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// miniature shrinks a workload to at most 16 devices and 20 steps,
// keeping every layer it exercises reachable inside that window.
func (w workload) miniature() workload {
	w.devices, w.steps = 16, 20
	if w.drainEvery > 0 {
		w.drainEvery, w.reviveAfter = 8, 4
	}
	return w
}

// TestMiniatures runs every workload at 16 devices and 20 steps: each
// named metric must come out finite with a unit, the sim digest must
// repeat across reps and tracing, and the traced layer spans must
// account for the loop time without exceeding it.
func TestMiniatures(t *testing.T) {
	for _, name := range names() {
		w := workloads[name].miniature()
		t.Run(name, func(t *testing.T) {
			plain, err := runOnce(w, DefaultSeed, false)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runOnce(w, DefaultSeed, true)
			if err != nil {
				t.Fatal(err)
			}
			again, err := runOnce(w, DefaultSeed, false)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != again.digest || plain.digest != tr.digest {
				t.Fatalf("sim digest does not repeat: untraced %016x, %016x, traced %016x", plain.digest, again.digest, tr.digest)
			}
			if len(plain.stepTimes) != w.steps || len(tr.spans) != numLayers*w.steps {
				t.Fatalf("recorded %d steps and %d spans over %d steps", len(plain.stepTimes), len(tr.spans), w.steps)
			}
			// The stepping scheme fires exactly one heartbeat per step.
			if w.cfg(DefaultSeed).GossipHealth && plain.gossipTicks != int64(w.steps) {
				t.Errorf("%d gossip ticks over %d steps", plain.gossipTicks, w.steps)
			}
			// The miniature still reaches the layers the full workload
			// exercises: scheduled control calls and the table probe.
			if (w.budget > 0 || w.storm || w.drainEvery > 0) && tr.controlCalls == 0 {
				t.Error("no control calls made")
			}
			if svcs, _ := w.services(w.devices); svcs[0].Stateful && (tr.readRow0 == 0 || tr.tableEntries == 0) {
				t.Errorf("table probe read nothing: row0 %v, %.1f entries", tr.readRow0, tr.tableEntries)
			}

			rs := runs{untraced: []*rep{plain, again}, traced: []*rep{tr}}
			for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
				if v := m.value(rs); math.IsNaN(v) || math.IsInf(v, 0) || m.unit == "" {
					t.Errorf("%s = %v %q", m.name, v, m.unit)
				}
			}

			totals, _ := tr.layerTotals()
			var sum time.Duration
			for _, d := range totals {
				sum += d
			}
			if sum > tr.loop || float64(sum) < 0.95*float64(tr.loop) {
				t.Errorf("layer spans sum to %v of a %v loop; want within [95%%, 100%%]", sum, tr.loop)
			}
		})
	}
}

// TestMeasureEmitsEveryMetric drives the command's own measurement path
// in both modes and checks the result line's metric set.
func TestMeasureEmitsEveryMetric(t *testing.T) {
	w := workloads["churn-120"].miniature()
	for _, tc := range []struct {
		trace bool
		want  []metric
	}{{false, endToEnd}, {true, perLayer}} {
		res, err := measure(bufio.NewWriter(io.Discard), w, HeldOutSeed, 0, tc.trace)
		if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < w.steps {
			t.Fatalf("trace=%v: %+v, %v", tc.trace, res, err)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace=%v: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("trace=%v: %s = %+v", tc.trace, m.name, got)
			}
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metric tables the command implements.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var gotW []string
	for _, w := range spec.Workloads {
		gotW = append(gotW, w.Name)
	}
	if want := names(); len(gotW) != len(want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", gotW, want)
	} else {
		for _, n := range gotW {
			if _, ok := workloads[n]; !ok {
				t.Errorf("BENCHMARK.json names unknown workload %q", n)
			}
		}
	}
	for _, tc := range []struct {
		key  string
		got  []named
		want []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: %d metrics, command emits %d", tc.key, len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.want {
			if tc.got[i].Name != m.name || tc.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %+v, command emits %s (%s)", tc.key, i, tc.got[i], m.name, m.unit)
			}
		}
	}
}

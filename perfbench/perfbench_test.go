package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, e := range b.EndToEnd {
		endToEnd[e.Name] = e.Unit
	}
	for _, e := range b.PerLayer {
		perLayer[e.Name] = e.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 1.5, trace: trace, root: "..",
		spans: t.TempDir(), tiny: true, out: io.Discard}
}

// TestWorkloadsShort runs every workload at tiny size, untraced and
// traced, and checks that each run verifies its outputs and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, wl := range []string{"sweep", "exact"} {
		for _, trace := range []bool{false, true} {
			name := wl
			want := endToEnd
			if trace {
				name, want = wl+"/trace", perLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(tinyConfig(t, wl, trace), nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("report %+v", rep)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(want))
				}
				for m, unit := range want {
					got, ok := rep.Metrics[m]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m)
					case got.Unit != unit:
						t.Errorf("metric %s in %s, declared %s", m, got.Unit, unit)
					case !trace && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m, got.Value)
					}
				}
			})
		}
	}
}

// TestWrongOutputFailsRun plants a wrong expected answer, or the
// mis-shaped body with "strategy" at the top level that wtamd answers
// with a fast 400, and checks that the run fails instead of reporting.
func TestWrongOutputFailsRun(t *testing.T) {
	cases := []struct {
		name, workload string
		trace          bool
		tamper         func(*workload)
	}{
		{"sweep/time", "sweep", false, func(w *workload) { w.jobs[0].want.time++ }},
		{"sweep/trace/time", "sweep", true, func(w *workload) { w.jobs[0].want.time++ }},
		{"exact/bounds", "exact", false, func(w *workload) {
			j := &w.jobs[0]
			j.want.exact, j.want.lo, j.want.hi = false, 1, 2
		}},
		{"sweep/trace/top-level-strategy", "sweep", true, func(w *workload) {
			for i := range w.ladderKeys {
				k := &w.ladderKeys[i]
				k.body = []byte(strings.Replace(string(k.body), `"options":{"strategy":`, `"strategy":`, 1))
				k.body = k.body[:len(k.body)-1]
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := run(tinyConfig(t, c.workload, c.trace), c.tamper)
			if err == nil {
				t.Fatalf("run with a wrong output reported %+v", rep)
			}
			if rep.Metrics != nil {
				t.Fatalf("failed run still carries metrics %v", rep.Metrics)
			}
			t.Logf("run failed as it should: %v", err)
		})
	}
}

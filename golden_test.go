package soctam_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"soctam"
)

// goldenEntry is one pre-redesign reference result: every deterministic
// result-relevant field of a PR 4 Solve call, captured from the tree
// before the backend registry existed.
type goldenEntry struct {
	SOC           string `json:"soc"`
	Width         int    `json:"width"`
	Strategy      string `json:"strategy"`
	Time          int64  `json:"time"`
	HeuristicTime int64  `json:"heuristic_time"`
	NumTAMs       int    `json:"num_tams"`
	Partition     []int  `json:"partition,omitempty"`
	Assignment    []int  `json:"assignment,omitempty"`
	Winner        string `json:"winner,omitempty"`
	PeakPower     int    `json:"peak_power"`
	MaxPower      int    `json:"max_power"`
	Optimal       bool   `json:"optimal"`
}

// TestSolveMatchesPreRegistryGolden is the redesign's acceptance gate:
// for all four pre-registry strategies on every benchmark SOC at every
// paper width, Solve through the backend registry reproduces the PR 4
// results bit for bit — testing time, heuristic time, partition,
// assignment, power accounting and (for the portfolio) the winning
// backend. testdata/golden_solve.json was generated from the tree at
// PR 4, before any registry code existed. In -short mode only the two
// smaller SOCs replay.
//
// Every entry replays twice — once with one worker (Workers = 1, which
// scores every partition inline on the enumerator's buffer in the
// paper's evaluation order) and once on the worker pool (batched slabs,
// per-worker scratch buffers, a concurrently shared bound) — and both
// must reproduce the golden results bit for bit. The one-worker replay
// of the partition strategy also pins the exact Stats (seqStats).
func TestSolveMatchesPreRegistryGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_solve.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4*7*4 {
		t.Fatalf("golden file has %d entries, want %d", len(entries), 4*7*4)
	}
	socs := make(map[string]*soctam.SOC)
	for _, e := range entries {
		if testing.Short() && (e.SOC == "p31108" || e.SOC == "p93791") {
			continue
		}
		s, ok := socs[e.SOC]
		if !ok {
			s, err = soctam.BenchmarkSOC(e.SOC)
			if err != nil {
				t.Fatal(err)
			}
			socs[e.SOC] = s
		}
		strat, err := soctam.ParseStrategy(e.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 0} { // sequential, then the pool
			res, err := soctam.Solve(s, e.Width, soctam.Options{Strategy: strat, Workers: workers})
			if err != nil {
				t.Fatalf("%s W=%d %s workers=%d: %v", e.SOC, e.Width, e.Strategy, workers, err)
			}
			if int64(res.Time) != e.Time || int64(res.HeuristicTime) != e.HeuristicTime {
				t.Errorf("%s W=%d %s workers=%d: time %d/%d, golden %d/%d",
					e.SOC, e.Width, e.Strategy, workers, res.Time, res.HeuristicTime, e.Time, e.HeuristicTime)
			}
			if res.NumTAMs != e.NumTAMs || !reflect.DeepEqual(res.Partition, canonNil(e.Partition)) {
				t.Errorf("%s W=%d %s workers=%d: partition %v (%d TAMs), golden %v (%d)",
					e.SOC, e.Width, e.Strategy, workers, res.Partition, res.NumTAMs, e.Partition, e.NumTAMs)
			}
			if !reflect.DeepEqual(res.Assignment.TAMOf, canonNil(e.Assignment)) {
				t.Errorf("%s W=%d %s workers=%d: assignment %v, golden %v",
					e.SOC, e.Width, e.Strategy, workers, res.Assignment.TAMOf, e.Assignment)
			}
			if res.PeakPower != e.PeakPower || res.MaxPower != e.MaxPower || res.AssignmentOptimal != e.Optimal {
				t.Errorf("%s W=%d %s workers=%d: peak/max/optimal %d/%d/%t, golden %d/%d/%t",
					e.SOC, e.Width, e.Strategy, workers, res.PeakPower, res.MaxPower, res.AssignmentOptimal,
					e.PeakPower, e.MaxPower, e.Optimal)
			}
			st := res.Stats
			got := [5]int{st.Enumerated, st.Completed, st.Aborted, st.Improved, st.PowerInfeasible}
			if want, ok := seqStats[fmt.Sprintf("%s/%d", e.SOC, e.Width)]; ok && workers == 1 && e.Strategy == "partition" && got != want {
				t.Errorf("%s W=%d partition workers=1: stats %v, want %v", e.SOC, e.Width, got, want)
			}
			if e.Winner != "" && res.Strategy.String() != e.Winner {
				t.Errorf("%s W=%d %s workers=%d: winner %s, golden %s",
					e.SOC, e.Width, e.Strategy, workers, res.Strategy, e.Winner)
			}
		}
	}
}

// seqStats pins the partition strategy's Stats at Workers = 1 on the
// two SOCs every replay (-short included) runs: with one worker the
// evaluation order is the paper's, so Completed (Table 1's p_eval),
// Aborted, Improved and PowerInfeasible are as reproducible as the
// testing time. Each entry lists Enumerated, Completed, Aborted,
// Improved and PowerInfeasible in that order.
var seqStats = map[string][5]int{
	"d695/16":   {212, 7, 205, 7, 0},
	"d695/24":   {1204, 11, 1193, 11, 0},
	"d695/32":   {5013, 16, 4997, 16, 0},
	"d695/40":   {16928, 19, 16909, 19, 0},
	"d695/48":   {49037, 17, 49020, 17, 0},
	"d695/56":   {126299, 31, 126268, 31, 0},
	"d695/64":   {296320, 47, 296273, 47, 0},
	"p21241/16": {212, 9, 203, 9, 0},
	"p21241/24": {1204, 16, 1188, 16, 0},
	"p21241/32": {5013, 22, 4991, 22, 0},
	"p21241/40": {16928, 29, 16899, 29, 0},
	"p21241/48": {49037, 53, 48984, 53, 0},
	"p21241/56": {126299, 49, 126250, 49, 0},
	"p21241/64": {296320, 77, 296243, 77, 0},
}

// canonNil maps an empty golden slice onto nil so DeepEqual compares
// "no partition" consistently (JSON round-trips nil as absent).
func canonNil(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	return s
}

// TestExhaustiveStrategyEndToEnd covers the promoted engine through the
// library surface: -strategy exhaustive equals ExhaustiveRange, and a
// portfolio spec racing it returns the exact optimum when the exact
// optimum is strictly better.
func TestExhaustiveStrategyEndToEnd(t *testing.T) {
	s := soctam.D695()
	viaSolve, err := soctam.Solve(s, 16, soctam.Options{Strategy: soctam.StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := soctam.ExhaustiveRange(s, 16, soctam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if viaSolve.Time != direct.Time || !reflect.DeepEqual(viaSolve.Partition, direct.Partition) {
		t.Errorf("Solve(exhaustive) (%d, %v) != ExhaustiveRange (%d, %v)",
			viaSolve.Time, viaSolve.Partition, direct.Time, direct.Partition)
	}
	if viaSolve.Strategy != soctam.StrategyExhaustive || !viaSolve.AssignmentOptimal {
		t.Errorf("Solve(exhaustive) strategy %s, optimal %t", viaSolve.Strategy, viaSolve.AssignmentOptimal)
	}

	strat, subset, err := soctam.ParseStrategySpec("portfolio:partition,exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	race, err := soctam.Solve(s, 16, soctam.Options{Strategy: strat, Portfolio: subset})
	if err != nil {
		t.Fatal(err)
	}
	partitionOnly, err := soctam.Solve(s, 16, soctam.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Time
	if partitionOnly.Time < want {
		want = partitionOnly.Time
	}
	if race.Time != want {
		t.Errorf("race returned %d cycles, want min(partition %d, exhaustive %d)",
			race.Time, partitionOnly.Time, direct.Time)
	}
	if len(race.Portfolio) != 2 {
		t.Fatalf("race has %d attribution entries, want 2", len(race.Portfolio))
	}
}

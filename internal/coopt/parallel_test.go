package coopt

import (
	"reflect"
	"runtime"
	"testing"

	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestParallelMatchesSequential checks that the worker pool is invisible
// in the outcome: at every worker count and enumeration strategy the
// chosen partition, assignment and testing times equal the Workers=1
// path (only the Completed/Aborted split of Stats may differ).
func TestParallelMatchesSequential(t *testing.T) {
	s := testSOC()
	for _, enum := range []Enumeration{EnumCanonical, EnumOdometer, EnumNaive} {
		seq, err := CoOptimize(s, 14, Options{MaxTAMs: 4, Workers: 1, Enumeration: enum})
		if err != nil {
			t.Fatalf("sequential (%v): %v", enum, err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := CoOptimize(s, 14, Options{MaxTAMs: 4, Workers: workers, Enumeration: enum})
			if err != nil {
				t.Fatalf("workers=%d (%v): %v", workers, enum, err)
			}
			if par.Time != seq.Time || par.HeuristicTime != seq.HeuristicTime {
				t.Errorf("workers=%d (%v): time %d/%d, sequential %d/%d",
					workers, enum, par.Time, par.HeuristicTime, seq.Time, seq.HeuristicTime)
			}
			if !reflect.DeepEqual(par.Partition, seq.Partition) {
				t.Errorf("workers=%d (%v): partition %v, sequential %v",
					workers, enum, par.Partition, seq.Partition)
			}
			if !reflect.DeepEqual(par.Assignment.TAMOf, seq.Assignment.TAMOf) {
				t.Errorf("workers=%d (%v): assignment %v, sequential %v",
					workers, enum, par.Assignment.TAMOf, seq.Assignment.TAMOf)
			}
			if par.Stats.Enumerated != seq.Stats.Enumerated {
				t.Errorf("workers=%d (%v): enumerated %d, sequential %d",
					workers, enum, par.Stats.Enumerated, seq.Stats.Enumerated)
			}
		}
	}
}

// TestParallelMatchesSequentialD695 is the acceptance check on the real
// benchmark: parallel Solve returns the same testing time (and winning
// partition) as Workers=1 on d695. Run with -race to exercise the pool.
func TestParallelMatchesSequentialD695(t *testing.T) {
	s := socdata.D695()
	for _, width := range []int{24, 32} {
		seq, err := Solve(s, width, Options{Workers: 1})
		if err != nil {
			t.Fatalf("sequential W=%d: %v", width, err)
		}
		par, err := Solve(s, width, Options{Workers: 4})
		if err != nil {
			t.Fatalf("parallel W=%d: %v", width, err)
		}
		if par.Time != seq.Time || par.HeuristicTime != seq.HeuristicTime {
			t.Errorf("W=%d: parallel time %d/%d, sequential %d/%d",
				width, par.Time, par.HeuristicTime, seq.Time, seq.HeuristicTime)
		}
		if !reflect.DeepEqual(par.Partition, seq.Partition) {
			t.Errorf("W=%d: parallel partition %v, sequential %v", width, par.Partition, seq.Partition)
		}
	}
}

// TestParallelZeroTimeSOC pins the degenerate case where every
// partition scores 0 cycles: a genuine 0-cycle best must not collide
// with the "no best yet" sentinel, so the winning partition stays the
// first enumerated one at any worker count.
func TestParallelZeroTimeSOC(t *testing.T) {
	s := &soc.SOC{Name: "zero", Cores: []soc.Core{
		{Outputs: 2, Patterns: 0},
		{Outputs: 3, Patterns: 0},
	}}
	seq, err := CoOptimize(s, 6, Options{MaxTAMs: 3, Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if seq.Time != 0 {
		t.Fatalf("zero-time SOC scored %d cycles", seq.Time)
	}
	for _, workers := range []int{2, 8} {
		par, err := CoOptimize(s, 6, Options{MaxTAMs: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if par.Time != seq.Time || !reflect.DeepEqual(par.Partition, seq.Partition) {
			t.Errorf("workers=%d: %d %v, sequential %d %v",
				workers, par.Time, par.Partition, seq.Time, seq.Partition)
		}
	}
}

// TestParallelPartitionEvaluate covers the fixed-B entry point.
func TestParallelPartitionEvaluate(t *testing.T) {
	s := testSOC()
	seq, err := PartitionEvaluate(s, 16, 3, Options{Workers: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := PartitionEvaluate(s, 16, 3, Options{Workers: 4})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if par.Time != seq.Time || !reflect.DeepEqual(par.Partition, seq.Partition) {
		t.Errorf("parallel %d %v, sequential %d %v", par.Time, par.Partition, seq.Time, seq.Partition)
	}
	if _, err := PartitionEvaluate(s, 4, 8, Options{Workers: 4}); err == nil {
		t.Error("parallel path accepted B > W")
	}
}

// TestOneWorkerStartsNoGoroutine checks that Workers = 1 scores inline:
// every improvement event of a one-worker solve is delivered with no
// goroutine beyond those running before the solve, while the pool's
// events arrive from its workers.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	s := socdata.D695()
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		most, events := 0, 0
		_, err := Solve(s, 32, Options{Workers: workers, Progress: func(ev ProgressEvent) {
			if ev.Kind == ProgressImproved {
				events++
				most = max(most, runtime.NumGoroutine())
			}
		}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if events == 0 {
			t.Fatalf("workers=%d: no improvement events", workers)
		}
		if workers == 1 && most > base {
			t.Errorf("workers=1: %d goroutines during the solve, %d before", most, base)
		}
		if workers > 1 && most <= base {
			t.Errorf("workers=%d: %d goroutines during the solve, %d before: the pool did not run", workers, most, base)
		}
	}
}

// TestWorkersOption pins the Workers resolution rules.
func TestWorkersOption(t *testing.T) {
	if got := (Options{Workers: -3}).workers(); got != 1 {
		t.Errorf("Workers=-3 resolved to %d, want 1", got)
	}
	if got := (Options{Workers: 5}).workers(); got != 5 {
		t.Errorf("Workers=5 resolved to %d, want 5", got)
	}
	if got := (Options{}).workers(); got < 1 {
		t.Errorf("default workers %d < 1", got)
	}
}

// TestSolveDispatch checks the unified entry point against its backends.
func TestSolveDispatch(t *testing.T) {
	s := testSOC()
	part, err := Solve(s, 12, Options{MaxTAMs: 3})
	if err != nil {
		t.Fatalf("Solve(partition): %v", err)
	}
	direct, err := CoOptimize(s, 12, Options{MaxTAMs: 3})
	if err != nil {
		t.Fatalf("CoOptimize: %v", err)
	}
	if part.Strategy != StrategyPartition || part.Time != direct.Time {
		t.Errorf("Solve(partition) = %v/%d, CoOptimize = %d", part.Strategy, part.Time, direct.Time)
	}
	packed, err := Solve(s, 12, Options{Strategy: StrategyPacking})
	if err != nil {
		t.Fatalf("Solve(packing): %v", err)
	}
	if packed.Strategy != StrategyPacking || packed.Packing == nil {
		t.Fatalf("Solve(packing) returned no schedule: %+v", packed)
	}
	if err := packed.Packing.Validate(len(s.Cores)); err != nil {
		t.Errorf("packing schedule invalid: %v", err)
	}
	if packed.Time != packed.Packing.Makespan {
		t.Errorf("packing Time %d != makespan %d", packed.Time, packed.Packing.Makespan)
	}
	if packed.Partition != nil || packed.Packing.TotalWidth != 12 {
		t.Errorf("packing result carries partition %v / width %d", packed.Partition, packed.Packing.TotalWidth)
	}
}

// TestStrategyString names the strategies.
func TestStrategyString(t *testing.T) {
	if StrategyPartition.String() != "partition" || StrategyPacking.String() != "packing" {
		t.Error("strategy names wrong")
	}
	if Strategy(7).String() != "Strategy(7)" {
		t.Error("unknown strategy string")
	}
}

// TestParallelMatchesSequentialPower extends the worker-pool invisibility
// guarantee to power-constrained runs: the feasibility filter is
// partition-intrinsic, so the chosen partition and testing time must not
// depend on the worker count under any ceiling.
func TestParallelMatchesSequentialPower(t *testing.T) {
	s := socdata.D695()
	for _, pmax := range []int{2500, 1800, 1200} {
		seq, err := CoOptimize(s, 32, Options{Workers: 1, MaxPower: pmax})
		if err != nil {
			t.Fatalf("sequential Pmax=%d: %v", pmax, err)
		}
		if seq.PeakPower > pmax {
			t.Errorf("sequential Pmax=%d: peak %d above ceiling", pmax, seq.PeakPower)
		}
		for _, workers := range []int{2, 4} {
			par, err := CoOptimize(s, 32, Options{Workers: workers, MaxPower: pmax})
			if err != nil {
				t.Fatalf("workers=%d Pmax=%d: %v", workers, pmax, err)
			}
			if par.Time != seq.Time || !reflect.DeepEqual(par.Partition, seq.Partition) {
				t.Errorf("workers=%d Pmax=%d: %d on %v, sequential %d on %v",
					workers, pmax, par.Time, par.Partition, seq.Time, seq.Partition)
			}
			if par.PeakPower != seq.PeakPower {
				t.Errorf("workers=%d Pmax=%d: peak %d, sequential %d", workers, pmax, par.PeakPower, seq.PeakPower)
			}
		}
	}
}

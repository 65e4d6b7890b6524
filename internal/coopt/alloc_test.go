package coopt

import (
	"testing"

	"soctam/internal/assign"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// TestPartitionScoringZeroAlloc pins the per-partition scoring kernel —
// scratch refill, Core_assign with its tie-break rules, the stats
// bookkeeping — at zero allocations on d695 once the evaluator's
// scratches are warm, and with it the whole inline step (bound, kernel,
// recording rule) once a best is held. The B = 1..MaxTAMs sweep scores
// hundreds of thousands of partitions through this step, so a single
// allocation per call is a regression.
func TestPartitionScoringZeroAlloc(t *testing.T) {
	s := socdata.D695()
	const width = 32
	tables, err := TimeTables(s, width)
	if err != nil {
		t.Fatal(err)
	}
	parts := []int{4, 8, 8, 12}
	for _, opt := range []Options{{Workers: 1}, {Workers: 1, PlainCoreAssign: true}} {
		e := newEvaluator(nil, tables, opt, nil, nil)
		w := &e.inline
		w.resize(len(tables), len(parts))
		kernel := func() {
			if _, ok := scoreOne(e.tables, &w.in, &w.asg, parts, 0, e.opt, &w.stats); !ok {
				t.Fatal("unbounded scoring aborted")
			}
		}
		kernel() // warm
		if allocs := testing.AllocsPerRun(100, kernel); allocs != 0 {
			t.Errorf("scoreOne (plain=%v) allocates %.1f/op when warm, want 0",
				opt.PlainCoreAssign, allocs)
		}
		e.score(w, parts, 0) // records the first best
		seq := int64(0)
		step := func() {
			seq++
			e.score(w, parts, seq)
		}
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("inline step (plain=%v) allocates %.1f/op holding a best, want 0",
				opt.PlainCoreAssign, allocs)
		}
	}
}

// TestPowerFeasibilityZeroAlloc pins the power-feasibility check of a
// would-be improvement at zero allocations with a warm scratch, the one
// the evaluator keeps under its lock.
func TestPowerFeasibilityZeroAlloc(t *testing.T) {
	s := socdata.D695()
	for i := range s.Cores {
		s.Cores[i].Power = 10 + 7*i
	}
	const width = 32
	tables, err := TimeTables(s, width)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := newPowerContext(s, Options{MaxPower: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	parts := []int{4, 8, 8, 12}
	inst, err := assign.FromTimeTable(tables, parts)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := assign.CoreAssign(inst, 0)
	if !ok {
		t.Fatal("assignment failed")
	}
	var ps powerScratch
	pc.feasible(tables, parts, a.TAMOf, &ps) // warm
	allocs := testing.AllocsPerRun(100, func() {
		pc.feasible(tables, parts, a.TAMOf, &ps)
	})
	if allocs != 0 {
		t.Errorf("power feasibility allocates %.1f/op when warm, want 0", allocs)
	}
}

// BenchmarkPartitionScoring measures the per-partition scoring kernel on
// d695 — the innermost unit of the Figure 3 sweep, whose cost bounds
// every co-optimization run.
func BenchmarkPartitionScoring(b *testing.B) {
	s := socdata.D695()
	const width = 32
	tables, err := TimeTables(s, width)
	if err != nil {
		b.Fatal(err)
	}
	parts := []int{4, 8, 8, 12}
	e := newEvaluator(nil, tables, Options{Workers: 1}, nil, nil)
	w := &e.inline
	w.resize(len(tables), len(parts))
	var last soc.Cycles
	scoreOne(e.tables, &w.in, &w.asg, parts, 0, e.opt, &w.stats) // warm the scratches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, ok := scoreOne(e.tables, &w.in, &w.asg, parts, 0, e.opt, &w.stats)
		if !ok {
			b.Fatal("unbounded scoring aborted")
		}
		last = a.Time
	}
	_ = last
}

// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices ARCHITECTURE.md calls out.
//
// Table benches run the corresponding experiment generator on a reduced
// width sweep (so a single iteration stays at benchmark scale) with the
// same algorithms and SOCs as the full cmd/tables run; the ablation
// benches isolate individual pruning levels and solver choices.
package soctam_test

import (
	"testing"

	"soctam"
	"soctam/internal/assign"
	"soctam/internal/coopt"
	"soctam/internal/experiments"
	"soctam/internal/socdata"
)

// benchOpt is the reduced sweep used by the table benches.
func benchOpt() experiments.Options {
	return experiments.Options{
		Widths:    []int{16, 32, 64},
		MaxTAMs:   6,
		NodeLimit: 200_000,
	}
}

// heavyOpt trims further for the experiments dominated by the exhaustive
// baseline on the largest SOC.
func heavyOpt() experiments.Options {
	return experiments.Options{
		Widths:    []int{16, 24},
		MaxTAMs:   4,
		NodeLimit: 100_000,
	}
}

func runExperiment(b *testing.B, name string, opt experiments.Options) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(name, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2CoreAssign(b *testing.B) {
	widths, times := socdata.Figure2()
	in := &assign.Instance{Widths: widths, Times: times}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := assign.CoreAssign(in, 0); !ok {
			b.Fatal("Core_assign aborted")
		}
	}
}

func BenchmarkTable1PartitionPruning(b *testing.B) {
	runExperiment(b, "table1", experiments.Options{Widths: []int{44, 48}})
}

func BenchmarkTable2D695PPAW(b *testing.B)    { runExperiment(b, "table2", benchOpt()) }
func BenchmarkTable3D695NPAW(b *testing.B)    { runExperiment(b, "table3", benchOpt()) }
func BenchmarkTable4Ranges(b *testing.B)      { runExperiment(b, "table4", benchOpt()) }
func BenchmarkTable5and6P21241(b *testing.B)  { runExperiment(b, "table5-6", benchOpt()) }
func BenchmarkTable7P21241NPAW(b *testing.B)  { runExperiment(b, "table7", benchOpt()) }
func BenchmarkTable8Ranges(b *testing.B)      { runExperiment(b, "table8", benchOpt()) }
func BenchmarkTable9and10P31108(b *testing.B) { runExperiment(b, "table9-10", benchOpt()) }
func BenchmarkTable11and12P31108(b *testing.B) {
	runExperiment(b, "table11-12", benchOpt())
}
func BenchmarkTable13P31108NPAW(b *testing.B) { runExperiment(b, "table13", benchOpt()) }
func BenchmarkTable14Ranges(b *testing.B)     { runExperiment(b, "table14", benchOpt()) }
func BenchmarkTable15and16P93791(b *testing.B) {
	runExperiment(b, "table15-16", benchOpt())
}
func BenchmarkTable17and18P93791(b *testing.B) {
	runExperiment(b, "table17-18", heavyOpt())
}
func BenchmarkTable19P93791NPAW(b *testing.B) { runExperiment(b, "table19", heavyOpt()) }

// --- Ablation benches -------------------------------------------------

// BenchmarkAblationEarlyAbort measures pruning level two: Core_assign's
// lines 18-20 abort against the running best during partition evaluation.
func BenchmarkAblationEarlyAbort(b *testing.B) {
	s := socdata.P21241()
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"with-abort", false}, {"without-abort", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := coopt.CoOptimize(s, 32, coopt.Options{
					MaxTAMs:      6,
					SkipFinal:    true,
					NoEarlyAbort: tc.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEnumeration measures pruning level one: the Figure 3
// Line-1 bound (odometer) against unrestricted nested loops (naive) and
// against the library's canonical enumeration.
func BenchmarkAblationEnumeration(b *testing.B) {
	s := socdata.P21241()
	for _, tc := range []struct {
		name string
		enum coopt.Enumeration
	}{
		{"canonical", coopt.EnumCanonical},
		{"odometer", coopt.EnumOdometer},
		{"naive", coopt.EnumNaive},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := coopt.PartitionEvaluate(s, 32, 5, coopt.Options{
					SkipFinal:   true,
					Enumeration: tc.enum,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFinalStep compares the exact engines for the final
// optimization step (and skipping it entirely).
func BenchmarkAblationFinalStep(b *testing.B) {
	s := socdata.D695()
	for _, tc := range []struct {
		name string
		opt  coopt.Options
	}{
		{"branch-and-bound", coopt.Options{MaxTAMs: 3}},
		{"ilp", coopt.Options{MaxTAMs: 3, FinalSolver: coopt.SolverILP}},
		{"skipped", coopt.Options{MaxTAMs: 3, SkipFinal: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var last soctam.Cycles
			for i := 0; i < b.N; i++ {
				res, err := coopt.CoOptimize(s, 32, tc.opt)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Time
			}
			b.ReportMetric(float64(last), "cycles")
		})
	}
}

// BenchmarkAblationTieBreaks compares the Figure 1 tie-break rules
// against plain lowest-index tie-breaking, reporting the testing time
// each variant reaches (quality, not just speed).
func BenchmarkAblationTieBreaks(b *testing.B) {
	s := socdata.P93791()
	for _, tc := range []struct {
		name  string
		plain bool
	}{{"paper-tie-breaks", false}, {"plain", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var last soctam.Cycles
			for i := 0; i < b.N; i++ {
				res, err := coopt.CoOptimize(s, 32, coopt.Options{
					MaxTAMs:         6,
					SkipFinal:       true,
					PlainCoreAssign: tc.plain,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.HeuristicTime
			}
			b.ReportMetric(float64(last), "cycles")
		})
	}
}

// --- Parallel and packing benches --------------------------------------

// BenchmarkParallelSolve measures the worker-pool speedup of partition
// evaluation on d695: the same P_NPAW sweep at one worker (the paper's
// sequential order) and at all CPUs. The final exact step is skipped so
// the bench isolates the parallelized phase.
func BenchmarkParallelSolve(b *testing.B) {
	s := socdata.D695()
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers-1", 1}, {"workers-all", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			var last soctam.Cycles
			for i := 0; i < b.N; i++ {
				res, err := coopt.Solve(s, 64, coopt.Options{
					SkipFinal: true,
					Workers:   tc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Time
			}
			b.ReportMetric(float64(last), "cycles")
		})
	}
}

// BenchmarkParallelSolveP21241 is the larger-SOC variant, where each
// Core_assign evaluation is heavier and the pool amortizes better.
func BenchmarkParallelSolveP21241(b *testing.B) {
	s := socdata.P21241()
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers-1", 1}, {"workers-all", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := coopt.Solve(s, 48, coopt.Options{
					MaxTAMs:   6,
					SkipFinal: true,
					Workers:   tc.workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPackingD695 measures the rectangle bin-packing backend.
func BenchmarkPackingD695(b *testing.B) {
	s := socdata.D695()
	b.ReportAllocs()
	var last soctam.Cycles
	for i := 0; i < b.N; i++ {
		res, err := coopt.Solve(s, 32, coopt.Options{Strategy: coopt.StrategyPacking})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Time
	}
	b.ReportMetric(float64(last), "cycles")
}

// BenchmarkDiagonalD695 measures the diagonal-length packing backend
// (compare against BenchmarkPackingD695 for the budgeted-best-fit one).
func BenchmarkDiagonalD695(b *testing.B) {
	s := socdata.D695()
	b.ReportAllocs()
	var last soctam.Cycles
	for i := 0; i < b.N; i++ {
		res, err := coopt.Solve(s, 32, coopt.Options{Strategy: coopt.StrategyDiagonal})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Time
	}
	b.ReportMetric(float64(last), "cycles")
}

// BenchmarkPortfolioD695 measures the three-way race end to end; the
// reported cycles are the best of the three backends by construction.
func BenchmarkPortfolioD695(b *testing.B) {
	s := socdata.D695()
	b.ReportAllocs()
	var last soctam.Cycles
	for i := 0; i < b.N; i++ {
		res, err := coopt.Solve(s, 32, coopt.Options{Strategy: coopt.StrategyPortfolio})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Time
	}
	b.ReportMetric(float64(last), "cycles")
}

// BenchmarkPowerConstrained measures the cost of the peak-power ceiling
// on both backends at the literature's classic 1800-unit operating
// point (compare against BenchmarkPackingD695 and the partition sweeps
// for the unconstrained baselines).
func BenchmarkPowerConstrained(b *testing.B) {
	s := socdata.D695()
	for _, bc := range []struct {
		name     string
		strategy coopt.Strategy
	}{
		{"partition", coopt.StrategyPartition},
		{"packing", coopt.StrategyPacking},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var last soctam.Cycles
			for i := 0; i < b.N; i++ {
				res, err := coopt.Solve(s, 32, coopt.Options{Strategy: bc.strategy, MaxPower: 1800, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Time
			}
			b.ReportMetric(float64(last), "cycles")
		})
	}
}

// --- Primitive benches -------------------------------------------------

func BenchmarkDesignWrapperS38584(b *testing.B) {
	s := socdata.D695()
	core := &s.Cores[4]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := soctam.DesignWrapper(core, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimeTableP93791(b *testing.B) {
	s := socdata.P93791()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := range s.Cores {
			if _, err := soctam.TimeTable(&s.Cores[c], 64); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCoreAssignP93791(b *testing.B) {
	s := socdata.P93791()
	in, err := soctam.NewInstance(s, []int{9, 16, 23})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.CoreAssign(in, 0)
	}
}

func BenchmarkExactAssignD695(b *testing.B) {
	s := socdata.D695()
	in, err := soctam.NewInstance(s, []int{5, 18, 33})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.SolveExact(in, assign.ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkILPAssignD695(b *testing.B) {
	s := socdata.D695()
	in, err := soctam.NewInstance(s, []int{8, 24})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.SolveILP(in, assign.ILPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Trajectory benches (cmd/benchjson) ---------------------------------

// BenchmarkSolve is the per-SOC x per-strategy trajectory bench set that
// cmd/benchjson records into BENCH_solve.json and gates in CI. Settings
// are pinned (width 32, MaxTAMs 6, bounded final solve, one worker) so
// that every PR measures the same work and the recorded ns/op, B/op and
// allocs/op stay comparable across the repo's history.
func BenchmarkSolve(b *testing.B) {
	for _, name := range []string{"d695", "p21241", "p31108", "p93791"} {
		s, err := socdata.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for _, strat := range []coopt.Strategy{
				coopt.StrategyPartition,
				coopt.StrategyPacking,
				coopt.StrategyDiagonal,
				coopt.StrategyPortfolio,
			} {
				b.Run(strat.String(), func(b *testing.B) {
					b.ReportAllocs()
					var last soctam.Cycles
					for i := 0; i < b.N; i++ {
						res, err := coopt.Solve(s, 32, coopt.Options{
							Strategy:  strat,
							MaxTAMs:   6,
							NodeLimit: 200_000,
							Workers:   1,
						})
						if err != nil {
							b.Fatal(err)
						}
						last = res.Time
					}
					b.ReportMetric(float64(last), "cycles")
				})
			}
		})
	}
}

// BenchmarkILP tracks the exact ILP/B&B engine's trajectory on d695 at
// the paper's full 32-wire budget — the exhaustive baseline is too slow
// to sit in a benchmark, the pruned search is not. Allocations are
// gated like every trajectory bench: the engine's hot path is the
// per-partition bound arithmetic plus one LP relaxation per surviving
// partition, and an allocs/op regression means a prune stopped paying
// for itself.
func BenchmarkILP(b *testing.B) {
	s, err := socdata.ByName("d695")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("d695", func(b *testing.B) {
		b.ReportAllocs()
		var last soctam.Cycles
		for i := 0; i < b.N; i++ {
			res, err := coopt.Solve(s, 32, coopt.Options{
				Strategy:  coopt.StrategyILP,
				MaxTAMs:   6,
				NodeLimit: 200_000,
				Workers:   1,
			})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Time
		}
		b.ReportMetric(float64(last), "cycles")
	})
}

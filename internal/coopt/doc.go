// Package coopt is the top of the wrapper/TAM co-optimization stack
// (ARCHITECTURE.md §3, §5, §8–§9, §11): the DATE 2002 paper's
// Partition_evaluate heuristic (Figure 3) for the problems P_PAW and
// P_NPAW, the exact final optimization step, and the solver-engine
// registry (backend.go) that Solve dispatches over — the partition
// flow, rectangle bin-packing (StrategyPacking), diagonal-length
// bin-packing (StrategyDiagonal), the exhaustive enumerate-and-solve
// baseline of the earlier JETTA 2002 work [8] (StrategyExhaustive),
// and the portfolio combinator (StrategyPortfolio) that races any
// registered subset concurrently against a shared incumbent bound and
// returns the winner. Options.Progress streams backend lifecycle and
// incumbent-improvement events from any run (progress.go).
//
// The partition flow mirrors the paper exactly:
//
//  1. per-core testing-time tables T_i(w) come from Design_wrapper
//     (package wrapper), computed once per SOC and total width;
//  2. width partitions are enumerated with the bounded Increment odometer
//     (package partition) for each candidate TAM count B;
//  3. every partition is scored with the Core_assign heuristic (package
//     assign) under the running best bound, which aborts hopeless
//     partitions early — the paper's three levels of pruning;
//  4. the winning partition is re-solved exactly (ILP or combinatorial
//     branch and bound) as the final optimization step.
//
// Steps 2–3 are one evaluator (evaluate.go): with Options.Workers = 1 it
// scores every partition inline in the paper's order, with more it runs
// the same per-partition step on a goroutine pool. Results are
// bit-for-bit identical at any worker count, including under the
// portfolio racer (ARCHITECTURE.md §3 has the determinism argument).
package coopt

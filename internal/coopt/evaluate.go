package coopt

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"soctam/internal/assign"
	"soctam/internal/partition"
	"soctam/internal/soc"
)

// batchSize is the evaluator's poll cadence — cancellation and the
// deadline are checked before every batchSize partitions of a TAM
// count, since a ctx.Err or clock read per partition would show on the
// hot path — and, on the worker pool, the number of partitions a worker
// claims at once (batching amortizes channel traffic).
const batchSize = 256

// noBest is the running best before any evaluation is recorded. It
// compares above every real testing time, so a genuine 0-cycle best on
// a degenerate SOC is a best like any other.
const noBest = math.MaxInt64

// evaluator is the paper's Partition_evaluate (Figure 3): it scores
// enumerated width partitions with Core_assign under the running best
// and keeps the winner. Options.Workers picks where the one
// per-partition step (score) runs. With one resolved worker the
// generator's yield scores each partition inline on the enumerator's
// own buffer — no goroutine, no channel, no copy — in exactly the
// paper's order. With more, the generator copies partitions into flat
// slab batches that a pool of goroutines scores through the same step.
//
// Determinism argument: Core_assign is deterministic per partition, and
// record keeps the lexicographic minimum of (time, sequence number) over
// completed, power-feasible evaluations. A partition aborts only when
// its time could not have displaced that minimum (the bound rule in
// score), so the set of potential winners is the same in any evaluation
// order, and every worker count picks the partition the one-worker run
// picks. Only the Completed/Aborted/Improved/PowerInfeasible split of
// Stats depends on evaluation order, which is the paper's at one worker.
type evaluator struct {
	tables  [][]soc.Cycles
	opt     Options
	pc      *powerContext
	ctx     context.Context // nil = never cancelled
	sink    *progressSink   // nil = no observer
	workers int             // resolved Options.Workers; 1 scores inline

	// tieSlack is added to the running best to form the abort bound: 0
	// inline, 1 on the pool (see score).
	tieSlack soc.Cycles

	// best is the running best testing time, noBest until the first
	// record. Written only under mu; read without it for the abort
	// bound and the deadline's incumbent test.
	best atomic.Int64

	mu       sync.Mutex // guards everything below up to the generator state
	bestSeq  int64
	bestPart []int
	stats    Stats
	ps       powerScratch

	// Generator state, touched only by the goroutine running evaluateB.
	seq       int64 // sequence number of the next partition; orders partitions across TAM counts
	truncated bool  // the deadline fired and stopped the enumeration
	inline    scorer

	// Pool state (workers > 1 only).
	jobs chan batch // open while a TAM count is being scored
	cur  batch      // the batch being filled
	wg   sync.WaitGroup
	free chan []int // drained slabs recycled to the generator
}

// scorer is one scoring goroutine's scratch: the instance refilled per
// partition, Core_assign's buffers, and its share of the Stats, merged
// into the evaluator's at the end of every TAM count.
type scorer struct {
	in    assign.Instance
	asg   assign.Scratch
	stats Stats
}

// batch is a block of enumerated partitions of one TAM count B stored
// back to back in one flat slab (partition i is flat[i*B : (i+1)*B]);
// seq0 is the sequence number of the first.
type batch struct {
	seq0 int64
	flat []int
}

// newEvaluator resolves the worker count and with it the bound's tie
// slack; nothing else about the run depends on it.
func newEvaluator(ctx context.Context, tables [][]soc.Cycles, opt Options, pc *powerContext, sink *progressSink) *evaluator {
	e := &evaluator{tables: tables, opt: opt, pc: pc, ctx: ctx, sink: sink, workers: opt.workers()}
	e.best.Store(noBest)
	if e.workers > 1 {
		e.tieSlack = 1
		// Room for every slab in flight: the job buffer's 2 per worker,
		// one in each worker's hands and the one being filled.
		e.free = make(chan []int, 4*e.workers)
	}
	return e
}

// evaluatePartitions is the partition flow's one driver: Partition_evaluate
// over TAM counts loB..hiB, carrying the running best and the sequence
// order across them, then the final step. PartitionEvaluate runs it for
// one B, coOptimizeTables for B = 1..MaxTAMs.
func evaluatePartitions(ctx context.Context, s *soc.SOC, tables [][]soc.Cycles, width, loB, hiB int, opt Options, sink *progressSink, started time.Time) (Result, error) {
	pc, err := newPowerContext(s, opt)
	if err != nil {
		return Result{}, err
	}
	e := newEvaluator(ctx, tables, opt, pc, sink)
	for b := loB; b <= hiB && !e.truncated; b++ {
		if err := e.evaluateB(width, b); err != nil {
			return Result{}, err
		}
	}
	return e.finish(width, started)
}

// evaluateB enumerates every width partition for one TAM count and
// scores it. Before every batchSize partitions, starting with the first,
// the generator polls cancellation and the deadline (stop); whatever was
// enumerated before a stop is still scored.
func (e *evaluator) evaluateB(width, numTAMs int) error {
	if numTAMs < 1 || width < numTAMs {
		return fmt.Errorf("coopt: cannot split width %d into %d TAMs", width, numTAMs)
	}
	e.start(numTAMs)
	n := 0
	err := enumeratePartitions(width, numTAMs, e.opt.Enumeration, func(parts []int) bool {
		if n%batchSize == 0 && e.stop() {
			return false
		}
		n++
		e.take(parts)
		return true
	})
	e.drain()
	if err == nil && e.ctx != nil {
		err = e.ctx.Err()
	}
	return err
}

// start readies the scorers for a TAM count: the inline scratch, or a
// fresh job channel and its workers.
func (e *evaluator) start(numTAMs int) {
	if e.workers == 1 {
		e.inline.resize(len(e.tables), numTAMs)
		return
	}
	// Two batches per worker let the generator run ahead of the scoring.
	e.jobs = make(chan batch, 2*e.workers)
	for range e.workers {
		e.wg.Add(1)
		go func(jobs <-chan batch) {
			defer e.wg.Done()
			e.work(numTAMs, jobs)
		}(e.jobs)
	}
}

// take hands the next enumerated partition to a scorer: inline it is
// scored straight off the enumerator's buffer; on the pool it is copied
// into the current batch, which goes out once full.
func (e *evaluator) take(parts []int) {
	seq := e.seq
	e.seq++
	if e.workers == 1 {
		e.score(&e.inline, parts, seq)
		return
	}
	if e.cur.flat == nil {
		e.cur = batch{seq0: seq, flat: e.slab(batchSize * len(parts))}
	}
	e.cur.flat = append(e.cur.flat, parts...)
	if len(e.cur.flat) == batchSize*len(parts) {
		e.jobs <- e.cur
		e.cur = batch{}
	}
}

// drain finishes a TAM count: the inline scorer's stats are merged, or
// the last partial batch goes out and the workers are waited for.
func (e *evaluator) drain() {
	if e.workers == 1 {
		e.merge(&e.inline)
		return
	}
	if e.cur.flat != nil {
		e.jobs <- e.cur
		e.cur = batch{}
	}
	close(e.jobs)
	e.wg.Wait()
}

// stop is the evaluator's one poll of cancellation and the deadline. The
// clock is read only when a deadline is set, so a run without one never
// touches it, and the deadline fires only once an incumbent exists, so
// a feasible run always answers.
func (e *evaluator) stop() bool {
	if e.ctx != nil && e.ctx.Err() != nil {
		return true
	}
	if !e.opt.Deadline.IsZero() && e.best.Load() != noBest && time.Now().After(e.opt.Deadline) {
		e.truncated = true
		return true
	}
	return false
}

// slab returns an empty flat buffer of capacity at least want, recycled
// from a drained batch when one fits.
func (e *evaluator) slab(want int) []int {
	for {
		select {
		case s := <-e.free:
			if cap(s) >= want {
				return s[:0]
			}
		default:
			return make([]int, 0, want)
		}
	}
}

// work is one pool worker: it scores the batches of one TAM count on its
// own scorer, skipping them once the context is cancelled.
func (e *evaluator) work(numTAMs int, jobs <-chan batch) {
	var w scorer
	w.resize(len(e.tables), numTAMs)
	for b := range jobs {
		if e.ctx == nil || e.ctx.Err() == nil {
			for k := range len(b.flat) / numTAMs {
				e.score(&w, b.flat[k*numTAMs:(k+1)*numTAMs], b.seq0+int64(k))
			}
		}
		// Nothing scored outlives the batch (record copies the winner),
		// so the slab can go straight back to the generator.
		select {
		case e.free <- b.flat:
		default:
		}
	}
	e.merge(&w)
}

// score is the per-partition step: Core_assign under the running best,
// then record.
//
// The bound follows one rule: a partition tying the running best may
// abort only when that best came from an earlier sequence number, since
// the tie then loses the tie-break anyway. Inline that always holds, so
// the bound is the best itself (a TAM load reaching it aborts — the
// paper's lines 18–20). On the pool the best may come from a later
// partition scored first, so the bound is best+1 and ties complete to
// reach the tie-break. A bound of 0 is none.
func (e *evaluator) score(w *scorer, parts []int, seq int64) {
	var bound soc.Cycles
	if cur := e.best.Load(); cur != noBest && !e.opt.NoEarlyAbort {
		bound = soc.Cycles(cur) + e.tieSlack
	}
	if a, completed := scoreOne(e.tables, &w.in, &w.asg, parts, bound, e.opt, &w.stats); completed {
		e.record(a.Time, parts, a.TAMOf, seq)
	}
}

// record folds a completed evaluation into the running best: better time
// wins, equal time goes to the earlier sequence number. Power
// feasibility is checked only on would-be winners — it needs the full
// serial-per-TAM schedule — and an infeasible one never becomes the
// best, so the potential-winner set stays order independent.
func (e *evaluator) record(t soc.Cycles, parts []int, tamOf []int, seq int64) {
	if soc.Cycles(e.best.Load()) < t {
		return // cannot win; decided without the lock
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := soc.Cycles(e.best.Load())
	if t > cur || t == cur && seq > e.bestSeq {
		return
	}
	if !e.pc.feasible(e.tables, parts, tamOf, &e.ps) {
		e.stats.PowerInfeasible++
		return
	}
	if t < cur {
		e.stats.Improved++
		// Emitted under mu, so the stream stays serialized and the times
		// it reports strictly decrease whatever the evaluation order.
		e.sink.improved(partitionBackendName, t, int(seq)+1)
	}
	e.best.Store(int64(t))
	e.bestSeq = seq
	e.bestPart = partition.Canonical(parts)
}

// merge adds a scorer's stats to the evaluator's and clears them.
func (e *evaluator) merge(w *scorer) {
	e.mu.Lock()
	e.stats.add(w.stats)
	e.mu.Unlock()
	w.stats = Stats{}
}

// resize sizes the scorer's instance for numTAMs TAMs over n cores. The
// rows share one backing array, so growing for a larger TAM count costs
// two allocations whatever the core count.
func (w *scorer) resize(n, numTAMs int) {
	if w.in.Times == nil {
		w.in.Times = make([][]soc.Cycles, n)
	}
	if cap(w.in.Widths) < numTAMs {
		w.in.Widths = make([]int, numTAMs)
		flat := make([]soc.Cycles, n*numTAMs)
		for i := range w.in.Times {
			w.in.Times[i] = flat[i*numTAMs : (i+1)*numTAMs : (i+1)*numTAMs]
		}
	}
	w.in.Widths = w.in.Widths[:numTAMs]
	for i := range w.in.Times {
		w.in.Times[i] = w.in.Times[i][:numTAMs]
	}
}

// scoreOne is the Core_assign kernel of score: it refills scratch with
// the partition's testing-time columns, runs the configured Core_assign
// variant under bound (0 = none) and books the evaluation into stats.
// completed is false when the lines 18–20 abort fired. The returned
// assignment aliases asg and is valid only until the next call with the
// same asg.
func scoreOne(tables [][]soc.Cycles, scratch *assign.Instance, asg *assign.Scratch, parts []int, bound soc.Cycles, opt Options, stats *Stats) (a assign.Assignment, completed bool) {
	stats.Enumerated++
	copy(scratch.Widths, parts)
	for i, table := range tables {
		row := scratch.Times[i]
		for j, w := range parts {
			row[j] = table[w-1]
		}
	}
	if opt.PlainCoreAssign {
		a, completed = assign.CoreAssignPlainWith(asg, scratch, bound)
	} else {
		a, completed = assign.CoreAssignWith(asg, scratch, bound)
	}
	if !completed {
		stats.Aborted++
		return a, false
	}
	stats.Completed++
	return a, true
}

// enumeratePartitions drives the configured partition generator for one
// TAM count, calling yield with a reused buffer for every enumerated
// partition; yield returning false stops the enumeration early (only
// cancellation and the deadline do — pruning never skips enumeration).
func enumeratePartitions(width, numTAMs int, strategy Enumeration, yield func(parts []int) bool) error {
	switch strategy {
	case EnumOdometer:
		o, err := partition.NewOdometer(width, numTAMs)
		if err != nil {
			return err
		}
		for {
			parts, ok := o.Next()
			if !ok || !yield(parts) {
				return nil
			}
		}
	case EnumNaive:
		o, err := partition.NewNaiveOdometer(width, numTAMs)
		if err != nil {
			return err
		}
		for {
			parts, ok := o.Next()
			if !ok || !yield(parts) {
				return nil
			}
		}
	default:
		partition.Enumerate(width, numTAMs, yield)
		return nil
	}
}

// finish replays the heuristic on the winning partition (for the
// assignment witness) and runs the exact final step, assembling Result.
// A truncated run skips the exact final step — the deadline has already
// passed, and the step can add unbounded branch-and-bound time — and
// reports the heuristic incumbent as is.
func (e *evaluator) finish(width int, started time.Time) (Result, error) {
	if e.bestPart == nil {
		return Result{}, fmt.Errorf("coopt: no feasible partition found for width %d", width)
	}
	best := soc.Cycles(e.best.Load())
	inst, err := assign.FromTimeTable(e.tables, e.bestPart)
	if err != nil {
		return Result{}, err
	}
	coreAssign := assign.CoreAssign
	if e.opt.PlainCoreAssign {
		coreAssign = assign.CoreAssignPlain
	}
	heur, ok := coreAssign(inst, 0)
	if !ok || heur.Time != best {
		return Result{}, fmt.Errorf("coopt: heuristic replay mismatch on %v: got %d, recorded %d", e.bestPart, heur.Time, best)
	}
	res := Result{
		TotalWidth:    width,
		Partition:     e.bestPart,
		NumTAMs:       len(e.bestPart),
		HeuristicTime: best,
		Assignment:    heur,
		Time:          heur.Time,
		Stats:         e.stats,
		MaxPower:      e.pc.maxPower(),
		Truncated:     e.truncated,
	}
	if !e.opt.SkipFinal && !e.truncated {
		final, optimal, err := solveExact(inst, e.opt)
		if err != nil {
			return Result{}, err
		}
		// The exact step can only improve on the heuristic; keep the
		// better of the two (they are equal when the heuristic was
		// already optimal) — unless its reshuffled schedule would breach
		// the power ceiling the heuristic assignment respects.
		if final.Time <= heur.Time && e.pc.feasible(e.tables, e.bestPart, final.TAMOf, nil) {
			res.Assignment = final
			res.Time = final.Time
			res.AssignmentOptimal = optimal
		}
	}
	res.PeakPower = e.pc.peak(e.tables, e.bestPart, res.Assignment.TAMOf, nil)
	res.Gap = gapOf(res.Time, lowerBoundPC(e.tables, e.pc, width))
	res.Proven = res.Gap == 0
	res.Elapsed = time.Since(started)
	return res, nil
}

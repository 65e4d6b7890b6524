package assign

import (
	"fmt"
	"math"
	"slices"

	"soctam/internal/ilp"
	"soctam/internal/lp"
	"soctam/internal/sched"
	"soctam/internal/soc"
	"soctam/internal/wrapper"
)

// Instance is one P_AW problem: TAM widths plus the core×TAM testing-time
// matrix T_i(w_j).
type Instance struct {
	// Widths holds w_1..w_B, the widths of the B TAMs.
	Widths []int
	// Times[i][j] is the testing time of core i on TAM j (of width
	// Widths[j]), computed by Design_wrapper.
	Times sched.Matrix
}

// NewInstance builds the instance for an SOC and TAM widths by running
// Design_wrapper for every core on every TAM width.
func NewInstance(s *soc.SOC, widths []int) (*Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(widths) == 0 {
		return nil, fmt.Errorf("assign: no TAMs")
	}
	maxW := 0
	for _, w := range widths {
		if w < 1 {
			return nil, fmt.Errorf("assign: TAM width %d < 1", w)
		}
		if w > maxW {
			maxW = w
		}
	}
	times := make(sched.Matrix, len(s.Cores))
	for i := range s.Cores {
		table, err := wrapper.TimeTable(&s.Cores[i], maxW)
		if err != nil {
			return nil, fmt.Errorf("assign: core %d: %w", i+1, err)
		}
		row := make([]soc.Cycles, len(widths))
		for j, w := range widths {
			row[j] = table[w-1]
		}
		times[i] = row
	}
	return &Instance{Widths: slices.Clone(widths), Times: times}, nil
}

// FromTimeTable builds the instance from precomputed per-core time tables
// (tables[i][w-1] = T_i(w)), avoiding repeated wrapper design when many
// width partitions are evaluated over the same SOC.
func FromTimeTable(tables [][]soc.Cycles, widths []int) (*Instance, error) {
	if len(widths) == 0 {
		return nil, fmt.Errorf("assign: no TAMs")
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("assign: no cores")
	}
	times := make(sched.Matrix, len(tables))
	for i, table := range tables {
		row := make([]soc.Cycles, len(widths))
		for j, w := range widths {
			if w < 1 || w > len(table) {
				return nil, fmt.Errorf("assign: width %d outside core %d's table (1..%d)", w, i+1, len(table))
			}
			row[j] = table[w-1]
		}
		times[i] = row
	}
	return &Instance{Widths: slices.Clone(widths), Times: times}, nil
}

// NumCores returns the number of cores in the instance.
func (in *Instance) NumCores() int { return len(in.Times) }

// NumTAMs returns the number of TAMs in the instance.
func (in *Instance) NumTAMs() int { return len(in.Widths) }

// Assignment is a complete core-to-TAM assignment with its TAM loads and
// SOC testing time.
type Assignment struct {
	// TAMOf[i] is the 0-based TAM index of core i.
	TAMOf []int
	// Loads[j] is the summed testing time on TAM j.
	Loads []soc.Cycles
	// Time is the SOC testing time: the maximum TAM load.
	Time soc.Cycles
}

// Vector returns the paper's 1-based core assignment vector notation,
// e.g. "(2,1,2,1,1)".
func (a *Assignment) Vector() string {
	b := []byte{'('}
	for i, j := range a.TAMOf {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", j+1)
	}
	return string(append(b, ')'))
}

// Validate checks the assignment against the instance and recomputes its
// loads and makespan.
func (a *Assignment) Validate(in *Instance) error {
	loads, span, err := in.Times.Makespan(a.TAMOf)
	if err != nil {
		return err
	}
	if !slices.Equal(loads, a.Loads) || span != a.Time {
		return fmt.Errorf("assign: assignment loads/time inconsistent with instance")
	}
	return nil
}

// CoreAssign runs the Figure 1 heuristic. bestKnown is the best SOC
// testing time found so far (the running bound of Partition_evaluate);
// pass 0 or negative for no bound. If at any point the largest TAM load
// reaches bestKnown, the heuristic aborts early (the paper's lines 18–20)
// and returns ok=false with the partial assignment (unassigned cores have
// TAMOf -1).
func CoreAssign(in *Instance, bestKnown soc.Cycles) (a Assignment, ok bool) {
	var sc Scratch
	return coreAssign(in, bestKnown, true, &sc)
}

// CoreAssignPlain is the ablation variant of CoreAssign without the
// paper's two tie-break rules: TAM ties resolve by index and core ties by
// index. The early-abort rule is retained.
func CoreAssignPlain(in *Instance, bestKnown soc.Cycles) (a Assignment, ok bool) {
	var sc Scratch
	return coreAssign(in, bestKnown, false, &sc)
}

// Scratch holds CoreAssign's working buffers for reuse across calls.
// The zero value is ready; the buffers grow to the largest instance
// seen. A Scratch belongs to one goroutine at a time.
type Scratch struct {
	tamOf     []int
	loads     []soc.Cycles
	lookAhead []int
}

// CoreAssignWith is CoreAssign writing into sc's buffers, so a caller
// scoring many partitions (Partition_evaluate's inner loop) allocates
// nothing per call. The returned assignment's TAMOf and Loads alias sc
// and are valid only until the next call with the same scratch; callers
// keeping a result must copy it.
func CoreAssignWith(sc *Scratch, in *Instance, bestKnown soc.Cycles) (a Assignment, ok bool) {
	return coreAssign(in, bestKnown, true, sc)
}

// CoreAssignPlainWith is CoreAssignPlain on a caller-owned scratch,
// with the same aliasing rules as CoreAssignWith.
func CoreAssignPlainWith(sc *Scratch, in *Instance, bestKnown soc.Cycles) (a Assignment, ok bool) {
	return coreAssign(in, bestKnown, false, sc)
}

// grow returns s resized to n, reallocating only when the capacity is
// short; contents are unspecified.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func coreAssign(in *Instance, bestKnown soc.Cycles, tieBreaks bool, sc *Scratch) (Assignment, bool) {
	n, nb := in.NumCores(), in.NumTAMs()
	sc.tamOf = grow(sc.tamOf, n)
	if cap(sc.loads) < nb {
		sc.loads = make([]soc.Cycles, nb)
	} else {
		sc.loads = sc.loads[:nb]
	}
	for j := range sc.loads {
		sc.loads[j] = 0
	}
	a := Assignment{TAMOf: sc.tamOf, Loads: sc.loads}
	for i := range a.TAMOf {
		a.TAMOf[i] = -1
	}
	// lookAhead[j] = widest TAM strictly narrower than TAM j (-1 if none):
	// the paper's line 15 tie-break target.
	sc.lookAhead = grow(sc.lookAhead, nb)
	lookAhead := sc.lookAhead
	for j := range lookAhead {
		lookAhead[j] = -1
		for k := 0; k < nb; k++ {
			if in.Widths[k] < in.Widths[j] &&
				(lookAhead[j] < 0 || in.Widths[k] > in.Widths[lookAhead[j]]) {
				lookAhead[j] = k
			}
		}
	}
	for remaining := n; remaining > 0; remaining-- {
		// Lines 10–12: TAM with minimum load; ties to the maximum width.
		j := 0
		for k := 1; k < nb; k++ {
			switch {
			case a.Loads[k] < a.Loads[j]:
				j = k
			case tieBreaks && a.Loads[k] == a.Loads[j] && in.Widths[k] > in.Widths[j]:
				j = k
			}
		}
		// Lines 13–16: unassigned core with maximum time on TAM j; ties
		// look ahead to the widest narrower TAM.
		best := -1
		tied := false
		for i := 0; i < n; i++ {
			if a.TAMOf[i] >= 0 {
				continue
			}
			switch {
			case best < 0 || in.Times[i][j] > in.Times[best][j]:
				best, tied = i, false
			case in.Times[i][j] == in.Times[best][j]:
				tied = true
			}
		}
		if tieBreaks && tied && lookAhead[j] >= 0 {
			k := lookAhead[j]
			top := in.Times[best][j]
			for i := 0; i < n; i++ {
				if a.TAMOf[i] >= 0 || in.Times[i][j] != top {
					continue
				}
				if in.Times[i][k] > in.Times[best][k] {
					best = i
				}
			}
		}
		// Line 17: assign.
		a.TAMOf[best] = j
		a.Loads[j] += in.Times[best][j]
		if a.Loads[j] > a.Time {
			a.Time = a.Loads[j]
		}
		// Lines 18–20: abort if the best-known time is already matched.
		if bestKnown > 0 && a.Time >= bestKnown {
			return a, false
		}
	}
	return a, true
}

// ExactOptions tunes the exact solvers.
type ExactOptions struct {
	// NodeLimit caps the branch-and-bound search; <= 0 uses the package
	// sched default.
	NodeLimit int64
}

// SolveExact solves the instance to optimality with the combinatorial
// branch-and-bound, warm-started by CoreAssign plus local search.
// optimal reports whether the node budget sufficed to prove optimality.
func SolveExact(in *Instance, opt ExactOptions) (Assignment, bool, error) {
	var warm []int
	if h, ok := CoreAssign(in, 0); ok {
		h = LocalImprove(in, h)
		warm = h.TAMOf
	}
	res, err := sched.BranchAndBound(in.Times, sched.Options{
		WarmAssign: warm,
		NodeLimit:  opt.NodeLimit,
	})
	if err != nil {
		return Assignment{}, false, err
	}
	loads, span, err := in.Times.Makespan(res.Assign)
	if err != nil {
		return Assignment{}, false, err
	}
	return Assignment{TAMOf: res.Assign, Loads: loads, Time: span}, res.Optimal, nil
}

// SolveExactCutoff solves the instance restricted to assignments
// strictly faster than cutoff cycles (cutoff > 0), warm-started like
// SolveExact. found reports whether such an assignment exists within
// the node budget; proven reports a completed search — with found it
// means a proven optimum, without it a proof that nothing below the
// cutoff exists (the caller's incumbent of value cutoff is therefore
// optimal). Seeding the search at the cutoff prunes it near the root,
// so a "no improvement" proof costs a fraction of a full solve.
func SolveExactCutoff(in *Instance, opt ExactOptions, cutoff soc.Cycles) (a Assignment, found, proven bool, err error) {
	var warm []int
	if h, ok := CoreAssign(in, 0); ok {
		h = LocalImprove(in, h)
		warm = h.TAMOf
	}
	res, err := sched.BranchAndBound(in.Times, sched.Options{
		WarmAssign: warm,
		NodeLimit:  opt.NodeLimit,
		Cutoff:     cutoff,
	})
	if err != nil {
		return Assignment{}, false, false, err
	}
	if res.Assign == nil {
		return Assignment{}, false, res.Optimal, nil
	}
	loads, span, err := in.Times.Makespan(res.Assign)
	if err != nil {
		return Assignment{}, false, false, err
	}
	return Assignment{TAMOf: res.Assign, Loads: loads, Time: span}, true, res.Optimal, nil
}

// LocalImprove hill-climbs an assignment with single-core moves and
// pairwise swaps until no step strictly reduces the SOC testing time.
// It tightens warm starts so the exact branch-and-bound prunes harder;
// the result is always at least as good as the input.
func LocalImprove(in *Instance, a Assignment) Assignment {
	n, nb := in.NumCores(), in.NumTAMs()
	tamOf := append([]int(nil), a.TAMOf...)
	loads := append([]soc.Cycles(nil), a.Loads...)

	spanOf := func() soc.Cycles {
		max := soc.Cycles(0)
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		return max
	}
	span := spanOf()
	for iter := 0; iter < 1000; iter++ {
		improved := false
		// Single-core moves.
		for i := 0; i < n; i++ {
			from := tamOf[i]
			for to := 0; to < nb; to++ {
				if to == from {
					continue
				}
				loads[from] -= in.Times[i][from]
				loads[to] += in.Times[i][to]
				if s := spanOf(); s < span {
					span = s
					tamOf[i] = to
					improved = true
					break
				}
				loads[from] += in.Times[i][from]
				loads[to] -= in.Times[i][to]
			}
		}
		// Pairwise swaps.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ti, tj := tamOf[i], tamOf[j]
				if ti == tj {
					continue
				}
				loads[ti] += in.Times[j][ti] - in.Times[i][ti]
				loads[tj] += in.Times[i][tj] - in.Times[j][tj]
				if s := spanOf(); s < span {
					span = s
					tamOf[i], tamOf[j] = tj, ti
					improved = true
					continue
				}
				loads[ti] -= in.Times[j][ti] - in.Times[i][ti]
				loads[tj] -= in.Times[i][tj] - in.Times[j][tj]
			}
		}
		if !improved {
			break
		}
	}
	return Assignment{TAMOf: tamOf, Loads: loads, Time: span}
}

// BuildILP constructs the Section 3.2 ILP model for the instance:
// binary x_ij selecting the TAM of each core and a continuous makespan
// variable T (the last variable), minimizing T subject to
//
//	T >= Σ_i x_ij·T_i(w_j)   for every TAM j
//	Σ_j x_ij = 1             for every core i
//
// The model has N·B+1 variables and N+B constraints, matching the
// complexity the paper quotes.
func BuildILP(in *Instance) *ilp.Model {
	n, nb := in.NumCores(), in.NumTAMs()
	nv := n*nb + 1
	tVar := n * nb
	m := &ilp.Model{
		Prob:    lp.Problem{NumVars: nv, Objective: make([]float64, nv)},
		Integer: make([]bool, nv),
	}
	m.Prob.Objective[tVar] = 1
	for i := 0; i < n; i++ {
		row := make([]float64, nv)
		for j := 0; j < nb; j++ {
			m.Integer[i*nb+j] = true
			row[i*nb+j] = 1
		}
		m.Prob.AddConstraint(row, lp.EQ, 1)
	}
	for j := 0; j < nb; j++ {
		row := make([]float64, nv)
		for i := 0; i < n; i++ {
			row[i*nb+j] = float64(in.Times[i][j])
		}
		row[tVar] = -1
		m.Prob.AddConstraint(row, lp.LE, 0)
	}
	return m
}

// ILPOptions tunes SolveILP.
type ILPOptions struct {
	// NodeLimit caps branch-and-bound nodes; <= 0 uses the package ilp
	// default.
	NodeLimit int
}

// RelaxationBound solves the LP relaxation of the Section 3.2 model and
// returns the rounded-up fractional makespan: a valid lower bound on the
// instance's optimal testing time, because every integral assignment is
// feasible for the relaxation and all testing times are integral. ok is
// false when the simplex gave up (iteration limit) — the caller must
// then skip the bound, never trust a partial one.
func RelaxationBound(in *Instance) (bound soc.Cycles, ok bool, err error) {
	model := BuildILP(in)
	sol, err := model.Prob.Solve()
	if err != nil {
		return 0, false, err
	}
	if sol.Status != lp.Optimal {
		return 0, false, nil
	}
	return soc.Cycles(math.Ceil(sol.Objective - 1e-6)), true, nil
}

// decodeILP reads the 0/1 assignment out of an ILP solution vector.
func decodeILP(in *Instance, x []float64) (Assignment, error) {
	n, nb := in.NumCores(), in.NumTAMs()
	tamOf := make([]int, n)
	for i := 0; i < n; i++ {
		tamOf[i] = -1
		for j := 0; j < nb; j++ {
			if x[i*nb+j] > 0.5 {
				tamOf[i] = j
				break
			}
		}
		if tamOf[i] < 0 {
			return Assignment{}, fmt.Errorf("assign: ILP solution leaves core %d unassigned", i+1)
		}
	}
	loads, span, err := in.Times.Makespan(tamOf)
	if err != nil {
		return Assignment{}, err
	}
	return Assignment{TAMOf: tamOf, Loads: loads, Time: span}, nil
}

// SolveILP solves the instance through the Section 3.2 ILP model and the
// package ilp branch-and-bound — the path the paper took with lpsolve.
// optimal reports proven optimality.
func SolveILP(in *Instance, opt ILPOptions) (Assignment, bool, error) {
	model := BuildILP(in)
	res, err := ilp.Solve(model, ilp.Options{NodeLimit: opt.NodeLimit})
	if err != nil {
		return Assignment{}, false, err
	}
	if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
		return Assignment{}, false, fmt.Errorf("assign: ILP solve ended with status %v", res.Status)
	}
	a, err := decodeILP(in, res.X)
	if err != nil {
		return Assignment{}, false, err
	}
	return a, res.Proven, nil
}

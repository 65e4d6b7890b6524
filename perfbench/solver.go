package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"soctam/internal/coopt"
	"soctam/internal/soc"
	"soctam/internal/socdata"
)

// The workloads, sweep and exact: one closed-loop caller runs a fixed
// list of (SOC, W) solves at Options.Workers = 1.

// chunkMS is the least time one timing of a job covers: a job faster
// than that is timed over as many back-to-back calls as fill it. One
// call of a sub-millisecond solve is too short for one clock reading,
// and one call of a tens-of-milliseconds solve varies by a fifth from
// call to call on a shared host.
const chunkMS = 100

// minPasses is the least number of timed passes over the job list.
const minPasses = 3

func newRand(a, b uint64) *rand.Rand { return rand.New(rand.NewPCG(a, b)) }

// expect is what a job's result must be.
type expect struct {
	exact      bool  // time, partition and assignment bit for bit
	time, heur int64 // heur < 0: heuristic time not checked
	partition  []int
	assignment []int
	lo, hi     int64 // bounds on Time when !exact
	proven     bool  // Result.Proven must hold
}

func (e expect) check(res coopt.Result) error {
	if e.proven && !res.Proven {
		return fmt.Errorf("result not proven")
	}
	t := int64(res.Time)
	if !e.exact {
		if t < e.lo || t > e.hi {
			return fmt.Errorf("time %d outside [%d, %d]", t, e.lo, e.hi)
		}
		return nil
	}
	switch {
	case t != e.time:
		return fmt.Errorf("time %d, want %d", t, e.time)
	case e.heur >= 0 && int64(res.HeuristicTime) != e.heur:
		return fmt.Errorf("heuristic time %d, want %d", res.HeuristicTime, e.heur)
	case !slices.Equal(res.Partition, e.partition):
		return fmt.Errorf("partition %v, want %v", res.Partition, e.partition)
	case !slices.Equal(res.Assignment.TAMOf, e.assignment):
		return fmt.Errorf("assignment %v, want %v", res.Assignment.TAMOf, e.assignment)
	}
	return nil
}

type solverJob struct {
	name string
	s    *soc.SOC
	w    int
	want expect
}

// workload is one job list with its expected results.
type workload struct {
	cfg        config
	strat      coopt.Strategy
	jobs       []solverJob
	ladderKeys []ladderKey // the traced run's request-path ladder
	ops        counter
}

func newWorkload(cfg config) (*workload, error) {
	switch cfg.workload {
	case "sweep":
		return &workload{cfg: cfg, strat: coopt.StrategyPartition}, nil
	case "exact":
		return &workload{cfg: cfg, strat: coopt.StrategyILP}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have sweep, exact)", cfg.workload)
}

// goldenEntry holds the fields of testdata/golden_solve.json and
// testdata/golden_ilp.json entries the checks use.
type goldenEntry struct {
	SOC           string `json:"soc"`
	Width         int    `json:"width"`
	Strategy      string `json:"strategy"`
	Time          int64  `json:"time"`
	HeuristicTime int64  `json:"heuristic_time"`
	Partition     []int  `json:"partition"`
	Assignment    []int  `json:"assignment"`
}

// golden holds the reference results in testdata/, read once per
// process before the timed set-ups: parsing them is the benchmark's own
// work, not the program's.
type golden struct{ solve, ilp []goldenEntry }

func loadGolden(root string) (*golden, error) {
	g := &golden{}
	for _, f := range []struct {
		name string
		to   *[]goldenEntry
	}{{"golden_solve.json", &g.solve}, {"golden_ilp.json", &g.ilp}} {
		raw, err := os.ReadFile(filepath.Join(root, "testdata", f.name))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, f.to); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
	}
	return g, nil
}

// socCache builds each benchmark SOC once per set-up.
type socCache map[string]*soc.SOC

func (c socCache) get(name string) (*soc.SOC, error) {
	if s, ok := c[name]; ok {
		return s, nil
	}
	s, err := socdata.ByName(name)
	if err != nil {
		return nil, err
	}
	c[name] = s
	return s, nil
}

// exactWidths is the exact workload's job list: every width at which
// the ILP engine finishes well under a second on these SOCs.
var exactWidths = []struct {
	name   string
	widths []int
}{
	{"d695", []int{6, 8, 10, 12, 16, 20, 24, 32}},
	{"p21241", []int{6, 8, 10, 12, 16, 20, 24, 32}},
	{"p31108", []int{6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 56, 64}},
}

// setup builds the job list, with each job's SOC and expected result,
// and the ladder keys: every (len/8)-th job's SOC and width.
func (w *workload) setup(g *golden) error {
	if err := w.buildJobs(g); err != nil {
		return err
	}
	step := max(len(w.jobs)/8, 1)
	for i := 0; i < len(w.jobs); i += step {
		j := &w.jobs[i]
		w.ladderKeys = append(w.ladderKeys, newLadderKey(j.name, j.s, j.w))
	}
	return nil
}

func (w *workload) buildJobs(g *golden) error {
	socs := socCache{}
	partitionGolden := map[string]goldenEntry{}
	for _, e := range g.solve {
		if e.Strategy == "partition" {
			partitionGolden[fmt.Sprintf("%s/%d", e.SOC, e.Width)] = e
		}
	}
	if w.cfg.workload == "sweep" {
		for _, e := range g.solve {
			if e.Strategy != "partition" || (w.cfg.tiny && (e.SOC != "d695" || e.Width > 24)) {
				continue
			}
			s, err := socs.get(e.SOC)
			if err != nil {
				return err
			}
			w.jobs = append(w.jobs, solverJob{e.SOC, s, e.Width, expect{
				exact: true, time: e.Time, heur: e.HeuristicTime,
				partition: e.Partition, assignment: e.Assignment,
			}})
		}
		return nil
	}
	exactRef := map[string]goldenEntry{}
	for _, e := range g.ilp {
		exactRef[fmt.Sprintf("%s/%d", e.SOC, e.Width)] = e
	}
	for _, sw := range exactWidths {
		if w.cfg.tiny && sw.name != "d695" {
			continue
		}
		s, err := socs.get(sw.name)
		if err != nil {
			return err
		}
		for _, width := range sw.widths {
			if w.cfg.tiny && width > 8 {
				continue
			}
			key := fmt.Sprintf("%s/%d", sw.name, width)
			want := expect{proven: true, heur: -1}
			if e, ok := exactRef[key]; ok {
				want.exact, want.time = true, e.Time
				want.partition, want.assignment = e.Partition, e.Assignment
			} else {
				lb, err := coopt.LowerBound(s, width)
				if err != nil {
					return err
				}
				want.lo = int64(lb)
				if e, ok := partitionGolden[key]; ok {
					want.hi = e.Time
				} else {
					res, err := coopt.Solve(s, width, coopt.Options{Workers: 1})
					if err != nil {
						return err
					}
					want.hi = int64(res.Time)
				}
			}
			w.jobs = append(w.jobs, solverJob{sw.name, s, width, want})
		}
	}
	return nil
}

func (w *workload) options() coopt.Options {
	return coopt.Options{Workers: 1, Strategy: w.strat}
}

// solve runs and checks one job, returning its wall time in ms.
func (w *workload) solve(j *solverJob) (float64, error) {
	t := startTimer()
	res, err := coopt.Solve(j.s, j.w, w.options())
	ms := t.seconds() * 1000
	if err == nil {
		err = j.want.check(res)
	}
	if err != nil {
		w.ops.add(1, 1)
		return ms, fmt.Errorf("%s W=%d: %w", j.name, j.w, err)
	}
	w.ops.add(1, 0)
	return ms, nil
}

// sample is one timing of a job: wall time, process CPU time and heap
// bytes allocated, each per call.
type sample struct{ wallMS, cpuMS, allocMB float64 }

// timeJob runs job i reps times back to back and returns the per-call
// figures.
func (w *workload) timeJob(i, reps int) (sample, error) {
	c0, a0 := cpuSeconds(), readMetrics(mAllocBytes)[0]
	t := startTimer()
	for r := 0; r < reps; r++ {
		if _, err := w.solve(&w.jobs[i]); err != nil {
			return sample{}, err
		}
	}
	k := float64(reps)
	return sample{
		wallMS:  t.seconds() * 1000 / k,
		cpuMS:   (cpuSeconds() - c0) * 1000 / k,
		allocMB: (readMetrics(mAllocBytes)[0] - a0) / k / (1 << 20),
	}, nil
}

// measure passes over the job list in a fresh seeded order each, at
// least minPasses times and more while they fit in the time. Each pass
// times every job once, over as many back-to-back calls as fill chunkMS;
// a job's first call, in the first pass, sets that number and is its
// first sample when it alone fills chunkMS. Every figure is built from
// per-job medians over the passes, so a pass slowed by the host moves
// none of them by itself.
func (w *workload) measure(seconds float64) (map[string]metric, error) {
	start := startTimer()
	n := len(w.jobs)
	rng := newRand(w.cfg.seed, 0)
	reps := make([]int, n)         // calls per timing; 0 until the job's first call
	samples := make([][]sample, n) // per job, one per pass
	var rates []float64            // per pass: jobs ÷ the list's time
	last := 0.0                    // wall seconds of the last pass
	for len(rates) < minPasses || start.seconds()+last <= seconds {
		pass := startTimer()
		list := 0.0
		for _, i := range rng.Perm(n) {
			var x sample
			var err error
			first := reps[i] == 0
			if first {
				x, err = w.timeJob(i, 1)
				reps[i] = max(int(math.Ceil(chunkMS/max(x.wallMS, 0.001))), 1)
			}
			if err == nil && (!first || reps[i] > 1) {
				x, err = w.timeJob(i, reps[i])
			}
			if err != nil {
				return nil, err
			}
			list += x.wallMS
			samples[i] = append(samples[i], x)
		}
		rates = append(rates, float64(n)/(list/1000))
		last = pass.seconds()
	}

	// medians is each job's median over the passes of one figure.
	medians := func(f func(sample) float64) []float64 {
		out := make([]float64, n)
		for i, xs := range samples {
			v := make([]float64, len(xs))
			for k, x := range xs {
				v[k] = f(x)
			}
			out[i] = median(v)
		}
		return out
	}
	fmt.Fprintf(w.cfg.out, "%s: %d jobs, %d passes, one caller, Workers=1, seed %d; solves/s per pass %s\n",
		w.cfg.workload, n, len(rates), w.cfg.seed, strings.Trim(fmt.Sprintf("%.3f", rates), "[]"))
	return map[string]metric{
		"solves_per_s":    {median(rates), "1/s"},
		"geomean_ms":      {geomean(medians(func(x sample) float64 { return x.wallMS })), "ms"},
		"cpu_ms_per_op":   {sum(medians(func(x sample) float64 { return x.cpuMS })) / float64(n), "ms"},
		"alloc_mb_per_op": {sum(medians(func(x sample) float64 { return x.allocMB })) / float64(n), "MB"},
	}, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

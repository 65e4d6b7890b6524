// Command perfbench is the repository's end-to-end benchmark. It drives
// the library (internal/coopt and the layers below it) and, in the
// traced run, the wtamd service (serve.NewCluster on real loopback
// listeners) only through their public functions, checks every output,
// and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 50 --trace 0
//
// # Workloads
//
// Each workload is a fixed job list run from a single process by one
// closed-loop caller; every library solve uses Options.Workers = 1, the
// share serve gives each pooled solve by default, so Result.Stats counts
// repeat exactly. The seed draws the order of the jobs in every timed
// pass, so no job always runs after the same neighbour.
//
//   - sweep: the paper's P_NPAW use. The default partition strategy over
//     the four paper SOCs × W ∈ {16,24,…,64} (28 jobs). It exercises
//     wrapper curves, partition enumeration, Core_assign scoring and the
//     exact final step; it never touches serve, cache or lp. Checked bit
//     for bit against testdata/golden_solve.json.
//   - exact: StrategyILP over d695 and p21241 at W ∈ {6,8,10,12,16,20,24,32}
//     and p31108 at W ∈ {6,…,32,40,48,56,64}. It loads the lp relaxations
//     and the assign cutoff solves that sweep barely uses. p93791 is left
//     out: the ILP engine needs seconds at W=6 and does not finish any
//     other width in seconds, a scaling gap that belongs to the ROADMAP
//     scaling item rather than to a steady benchmark. Checked against
//     testdata/golden_ilp.json where an entry exists, otherwise Proven
//     must hold and LowerBound ≤ Time ≤ the partition flow's time.
//
// There is no service workload. Through wtamd nodes on this package's
// loopback listeners, open-loop latency, capacity and cache-churn
// figures moved by 20–200% (interquartile range over median) across ten
// runs of identical code on a shared 2-vCPU host, beyond any bound a
// regression gate can use. The traced run still times every
// request-path layer, one public call at a time (see ladder.go).
//
// # End-to-end metrics (trace 0)
//
//	setup_s          s    median of several set-ups: SOCs built, expected
//	                      results assembled from the golden files (read
//	                      once before) or, for exact jobs without one,
//	                      computed (lower bound, partition-flow solve)
//	solves_per_s     1/s  jobs ÷ the list's time, the median over passes;
//	                      the few heavy jobs dominate it
//	geomean_ms       ms   geometric mean over jobs of each job's median
//	                      time per call; every job weighs equally
//	cpu_ms_per_op    ms   process user+sys CPU per job of the list (the
//	                      mean over jobs of each job's median CPU per
//	                      call), garbage collection included
//	alloc_mb_per_op  MB   heap bytes allocated per job of the list,
//	                      the same way; it drives garbage-collection CPU
//	                      and the heap the process needs
//
// A job faster than chunkMS is timed over back-to-back calls that fill
// it. Per-job percentiles are not reported: over a 28-job list the median
// sits between two jobs and flips from one to the other.
//
// # Per-layer metrics (trace 1)
//
// The traced run times calls into each layer's public functions from
// this package, keeps spans (name, start, end, parent, request id) in
// memory and writes them to spans-<workload>-<seed>.json at the end.
// Each layer metric is predicted to move the named end-to-end metric on
// its home workload and to stay flat elsewhere:
//
//	wrapper.curves_us           sweep geomean_ms
//	partition.enumerate_ms      sweep solves_per_s (with partition.count)
//	coopt.evaluate_ms           sweep solves_per_s, geomean_ms
//	assign.final_ms             sweep geomean_ms
//	assign.aborted_ratio        sweep solves_per_s
//	assign.relax_us, _allocs    exact solves_per_s, cpu_ms_per_op
//	assign.cutoff_us            exact geomean_ms
//	coopt.incumbents            exact solves_per_s
//	coopt.alloc_kb_per_solve    sweep/exact alloc_mb_per_op
//	runtime.gc_cpu_ratio        sweep/exact cpu_ms_per_op
//
// The request-path ladder, on every (len/8)-th job's SOC and width with
// the packing strategy, times the layers a wtamd request crosses. No
// gated workload runs them; they are the baseline for hot-path work:
//
//	socdata.byname_us, soc.digest_us, soc.canonical_us, soc.parse_us
//	serve.solve_hit_us → serve.handler_us → serve.http_us
//	serve.forward_us            routed minus owner-answered warm request
//	pack.solve_ms               the packing solve of a cold request
//	serve.cold_overhead_ms      cold request minus that solve
//
// The difference between the traced and the untraced list is reported
// as trace.overhead_ratio.
//
// A wrong output, a non-2xx response or a transport error fails the
// run: it exits non-zero and prints no metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line printed last on standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string    // repository root holding testdata/
	spans    string    // directory the traced run writes its span dump to
	tiny     bool      // minimal inputs, for the package's own test
	out      io.Writer // human-readable lines
}

// run reads the golden files, then builds the workload at least three
// times, and until the builds add up to a second (at most 500 times), to
// take the median set-up time; the last build is the one measured. It then measures it and
// returns the result. tamper, when non-nil, may alter the measured
// workload after set-up (the package test uses it to plant wrong
// expectations).
func run(cfg config, tamper func(*workload)) (report, error) {
	g, err := loadGolden(cfg.root)
	if err != nil {
		return report{}, err
	}
	var setups []float64
	var w *workload
	for len(setups) < 3 || (sum(setups) < 1 && len(setups) < 500) {
		if w, err = newWorkload(cfg); err != nil {
			return report{}, err
		}
		t := startTimer()
		if err := w.setup(g); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, t.seconds())
	}
	if tamper != nil {
		tamper(w)
	}
	settle()
	var metrics map[string]metric
	if cfg.trace {
		var tr *tracer
		metrics, tr, err = w.traced()
		if err == nil {
			err = tr.dump(cfg)
		}
	} else {
		metrics, err = w.measure(cfg.seconds)
		if err == nil {
			metrics["setup_s"] = metric{median(setups), "s"}
		}
	}
	attempted, failed := w.ops.get()
	if err != nil {
		return report{}, err
	}
	if failed > 0 {
		return report{}, fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return report{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep or exact")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 50, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&cfg.root, "root", ".", "repository root (holds testdata/)")
	flag.StringVar(&cfg.spans, "spans", ".", "directory the traced run writes its span dump to")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.out = os.Stdout

	rep, err := run(cfg, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

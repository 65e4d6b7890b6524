package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soctam/internal/assign"
	"soctam/internal/coopt"
	"soctam/internal/partition"
	"soctam/internal/soc"
	"soctam/internal/wrapper"
)

// The traced run: spans recorded around calls into each layer's public
// functions from this package, kept in memory and written out at the
// end, plus the per-layer metrics derived from the same calls.

// span is one timed call. Spans of one request or job share Req.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Req     string  `json:"req,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started but not ended.
type open struct {
	tr         *tracer
	id, parent int64
	name, req  string
	start      time.Time
}

func (t *tracer) begin(name string, parent int64, req string) *open {
	return &open{tr: t, id: t.ids.Add(1), parent: parent, name: name, req: req, start: time.Now()}
}

// end records the span and returns its duration.
func (o *open) end() time.Duration {
	end := time.Now()
	o.tr.add(o.id, o.parent, o.name, o.req, o.start, end)
	return end.Sub(o.start)
}

func (t *tracer) add(id, parent int64, name, req string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		StartUS: float64(start.Sub(t.t0)) / 1e3, EndUS: float64(end.Sub(t.t0)) / 1e3})
	t.mu.Unlock()
}

// dump writes the spans to spans-<workload>-<seed>.json under cfg.spans
// and prints each span name's count, total and self time (its duration
// minus its children's).
func (t *tracer) dump(cfg config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	type agg struct {
		n           int
		total, self float64
	}
	byName := map[string]*agg{}
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		d := s.EndUS - s.StartUS
		a.n++
		a.total += d
		a.self += d - child[s.ID]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(cfg.out, "%-24s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(cfg.out, "%-24s %8d %14.3f %14.3f\n", n, a.n, a.total/1e3, a.self/1e3)
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, t.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.spans, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "%d spans written to %s\n", len(t.spans), path)
	return nil
}

// layerUnits lists every per-layer metric with its unit, in print order.
var layerUnits = []struct{ name, unit string }{
	{"wrapper.curves_us", "us"},
	{"partition.enumerate_ms", "ms"},
	{"partition.count", "count"},
	{"coopt.evaluate_ms", "ms"},
	{"assign.final_ms", "ms"},
	{"assign.aborted_ratio", "ratio"},
	{"assign.relax_us", "us"},
	{"assign.relax_allocs", "count"},
	{"assign.cutoff_us", "us"},
	{"coopt.incumbents", "count"},
	{"coopt.alloc_kb_per_solve", "KB"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"socdata.byname_us", "us"},
	{"soc.digest_us", "us"},
	{"soc.canonical_us", "us"},
	{"serve.solve_hit_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.http_us", "us"},
	{"soc.parse_us", "us"},
	{"pack.solve_ms", "ms"},
	{"serve.forward_us", "us"},
	{"serve.cold_overhead_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// layers accumulates per-layer samples; a metric is the mean of its
// samples, or a value set directly.
type layers struct {
	sum map[string]float64
	n   map[string]int
}

func newLayers() *layers { return &layers{sum: map[string]float64{}, n: map[string]int{}} }

func (l *layers) add(name string, v float64) {
	l.sum[name] += v
	l.n[name]++
}

func (l *layers) set(name string, v float64) {
	l.sum[name], l.n[name] = v, 1
}

// metrics returns every per-layer metric the run measured; a layer it
// never reached is left out rather than reported as 0.
func (l *layers) metrics() map[string]metric {
	m := map[string]metric{}
	for _, lu := range layerUnits {
		if n := l.n[lu.name]; n > 0 {
			m[lu.name] = metric{l.sum[lu.name] / float64(n), lu.unit}
		}
	}
	return m
}

// timeCalls calls fn repeatedly for at least 5 ms and returns the mean
// time per call, recorded as one span.
func timeCalls(tr *tracer, name string, parent int64, req string, fn func() error) (time.Duration, error) {
	sp := tr.begin(name, parent, req)
	n := 0
	for ; n == 0 || time.Since(sp.start) < 5*time.Millisecond; n++ {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return sp.end() / time.Duration(n), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// solveObserved runs one library solve with a progress hook counting
// incumbent improvements and the runtime's allocation counter read
// around it.
func solveObserved(tr *tracer, parent int64, req string, s *soc.SOC, w int, opt coopt.Options, l *layers) (coopt.Result, error) {
	improved := 0
	opt.Progress = func(ev coopt.ProgressEvent) {
		if ev.Kind == coopt.ProgressImproved {
			improved++
		}
	}
	a0 := readMetrics(mAllocBytes)[0]
	sp := tr.begin("coopt.Solve", parent, req)
	res, err := coopt.Solve(s, w, opt)
	sp.end()
	if err != nil {
		return res, err
	}
	l.add("coopt.incumbents", float64(improved))
	l.add("coopt.alloc_kb_per_solve", (readMetrics(mAllocBytes)[0]-a0)/1024)
	return res, nil
}

// probeSolverLayers times the stages of the partition flow on (s, w)
// one public call at a time: wrapper curves, partition enumeration for
// B = 1..10, Core_assign scoring (CoOptimize with SkipFinal), the exact
// final step, the LP relaxation bound and the cutoff solve that proves
// the optimum cannot improve.
func probeSolverLayers(tr *tracer, parent int64, req string, s *soc.SOC, w int, l *layers) error {
	d, err := timeCalls(tr, "wrapper.Curves", parent, req, func() error {
		_, err := wrapper.Curves(s, w)
		return err
	})
	if err != nil {
		return err
	}
	l.add("wrapper.curves_us", us(d))

	sp := tr.begin("partition.Enumerate", parent, req)
	count := 0
	for b := 1; b <= min(10, w); b++ {
		partition.Enumerate(w, b, func([]int) bool { count++; return true })
	}
	l.add("partition.enumerate_ms", ms(sp.end()))
	l.add("partition.count", float64(count))

	sp = tr.begin("coopt.CoOptimize", parent, req)
	res, err := coopt.CoOptimize(s, w, coopt.Options{Workers: 1, SkipFinal: true})
	l.add("coopt.evaluate_ms", ms(sp.end()))
	if err != nil {
		return err
	}
	if done := res.Stats.Completed + res.Stats.Aborted; done > 0 {
		l.add("assign.aborted_ratio", float64(res.Stats.Aborted)/float64(done))
	}
	in, err := assign.NewInstance(s, res.Partition)
	if err != nil {
		return err
	}

	sp = tr.begin("assign.SolveExact", parent, req)
	best, _, err := assign.SolveExact(in, assign.ExactOptions{})
	l.add("assign.final_ms", ms(sp.end()))
	if err != nil {
		return err
	}

	o0 := readMetrics(mAllocObjs)[0]
	if _, _, err := assign.RelaxationBound(in); err != nil {
		return err
	}
	l.add("assign.relax_allocs", readMetrics(mAllocObjs)[0]-o0)
	if d, err = timeCalls(tr, "assign.RelaxationBound", parent, req, func() error {
		_, _, err := assign.RelaxationBound(in)
		return err
	}); err != nil {
		return err
	}
	l.add("assign.relax_us", us(d))

	if d, err = timeCalls(tr, "assign.SolveExactCutoff", parent, req, func() error {
		_, found, _, err := assign.SolveExactCutoff(in, assign.ExactOptions{}, best.Time)
		if err == nil && found {
			err = fmt.Errorf("cutoff solve improved on the proven optimum %d", best.Time)
		}
		return err
	}); err != nil {
		return err
	}
	l.add("assign.cutoff_us", us(d))
	return nil
}

// gcShare brackets a phase with the runtime's CPU accounting and
// returns the share of Go CPU time spent in garbage collection.
func gcShare(fn func() error) (float64, error) {
	const user = "/cpu/classes/user:cpu-seconds"
	settle() // the runtime updates its CPU estimates at each collection
	b := readMetrics(mGCCPU, user)
	err := fn()
	settle()
	a := readMetrics(mGCCPU, user)
	gc, u := a[0]-b[0], a[1]-b[1]
	if gc+u <= 0 {
		return 0, err
	}
	return gc / (gc + u), err
}

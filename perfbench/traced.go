package main

import (
	"fmt"
	"strings"
)

// traced runs the job list once as a warm-up, then once more with each
// job solved untraced and, right after, traced, with every
// partition-flow layer probed on it, then the request-path ladder on
// the ladder keys set-up chose from the list.
func (w *workload) traced() (map[string]metric, *tracer, error) {
	tr := newTracer()
	l := newLayers()
	for i := range w.jobs {
		if _, err := w.solve(&w.jobs[i]); err != nil {
			return nil, nil, err
		}
	}
	var untracedMS, tracedMS float64
	gc, err := gcShare(func() error {
		for i := range w.jobs {
			j := &w.jobs[i]
			req := fmt.Sprintf("%s/W%d", j.name, j.w)
			ms, err := w.solve(j)
			if err != nil {
				return err
			}
			untracedMS += ms
			root := tr.begin("job", 0, req)
			t := startTimer()
			res, err := solveObserved(tr, root.id, req, j.s, j.w, w.options(), l)
			tracedMS += t.seconds() * 1000
			if err == nil {
				err = j.want.check(res)
			}
			w.ops.add(1, 0)
			if err != nil {
				w.ops.add(0, 1)
				return fmt.Errorf("%s: %w", req, err)
			}
			if err := probeSolverLayers(tr, root.id, req, j.s, j.w, l); err != nil {
				return fmt.Errorf("%s: %w", req, err)
			}
			root.end()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	l.set("runtime.gc_cpu_ratio", gc)
	l.set("trace.overhead_ratio", tracedMS/untracedMS-1)

	// Each layer's share of the workload's blocking time: the layer's
	// time summed over the list ÷ the list's untraced solve time.
	wall := untracedMS
	fmt.Fprintf(w.cfg.out, "share of the %s list's solve time (%.1f ms):", w.cfg.workload, wall)
	for _, name := range []string{"wrapper.curves_us", "partition.enumerate_ms", "coopt.evaluate_ms",
		"assign.final_ms", "assign.relax_us", "assign.cutoff_us"} {
		total := l.sum[name]
		if strings.HasSuffix(name, "_us") {
			total /= 1000
		}
		fmt.Fprintf(w.cfg.out, " %s %.2f%%", name, 100*total/wall)
	}
	fmt.Fprintln(w.cfg.out)

	if err := runLadder(tr, w.ladderKeys, l); err != nil {
		return nil, nil, err
	}
	return l.metrics(), tr, nil
}

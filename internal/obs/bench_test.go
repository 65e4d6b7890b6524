package obs

import (
	"io"
	"testing"
)

// The Obs benchmarks feed the cmd/benchjson trajectory gate: the
// registry's promise is that the instrumentation added to the solver
// and serving hot paths costs a handful of nanoseconds and zero
// allocations per update. A regression here fails CI before it shows up
// as solver-side allocs/op growth. Each bench resets its timer after
// building its registry, so allocs/op is the hot path's own count at
// any -benchtime, not NewRegistry's setup amortized over b.N.

func BenchmarkObsCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "h")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "h", DefTimeBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

func BenchmarkObsVecWith(b *testing.B) {
	v := NewRegistry().CounterVec("bench_vec_total", "h", "strategy")
	v.With("greedy") // resolve once so the loop measures the lookup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("greedy").Inc()
	}
}

func BenchmarkObsWriteText(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench_requests_total", "h", "route", "code")
	for _, route := range []string{"/v1/solve", "/v1/batch", "/v1/stats"} {
		for _, code := range []string{"200", "429", "500"} {
			v.With(route, code).Add(7)
		}
	}
	h := r.HistogramVec("bench_latency_seconds", "h", DefTimeBuckets, "route")
	h.With("/v1/solve").Observe(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// timer measures one wall-clock interval.
type timer struct{ t0 time.Time }

func startTimer() timer { return timer{time.Now()} }

func (t timer) seconds() float64 { return time.Since(t.t0).Seconds() }

// settle collects garbage left by set-up so the timed phase does not
// pay for it.
func settle() {
	runtime.GC()
	runtime.GC()
}

// median is the middle value of xs, or the mean of the two middle
// values (xs is not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtime/metrics names read around measured calls.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

// readMetrics reads the named runtime metrics as float64s, in order.
func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// counter tallies attempted and failed operations across goroutines.
type counter struct {
	mu                sync.Mutex
	attempted, failed int
}

func (c *counter) add(attempted, failed int) {
	c.mu.Lock()
	c.attempted += attempted
	c.failed += failed
	c.mu.Unlock()
}

func (c *counter) get() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soctam/internal/coopt"
	"soctam/internal/socdata"
)

// BenchmarkSolveCacheHit measures the full service path for a warm key:
// digest, canonicalization, LRU lookup and result re-indexing — the
// per-request overhead a repeated query pays instead of a solve.
func BenchmarkSolveCacheHit(b *testing.B) {
	sv := New(Config{})
	defer sv.Close()
	s := socdata.D695()
	if _, _, err := sv.Solve(context.Background(), s, 32, coopt.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, meta, err := sv.Solve(context.Background(), s, 32, coopt.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !meta.Cached {
			b.Fatal("benchmark missed the cache")
		}
	}
}

// BenchmarkSolveCold measures the uncached service path (the solve
// dominates; the interesting ratio is against BenchmarkSolveCacheHit).
func BenchmarkSolveCold(b *testing.B) {
	sv := New(Config{CacheSize: -1})
	defer sv.Close()
	s := socdata.D695()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sv.Solve(context.Background(), s, 16, coopt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPSolveHit is BenchmarkSolveCacheHit through the whole
// HTTP stack: JSON decode, handler, JSON encode.
func BenchmarkHTTPSolveHit(b *testing.B) {
	sv := New(Config{})
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	body := `{"benchmark":"d695","width":32}`
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		// Drained before Close so keep-alive reuses the connection and
		// the bench times the request path, not a TCP dial per request.
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	post() // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkBatchDuplicates measures batch throughput on the repeated-
// query workload the service exists for: 32 jobs, 4 distinct.
func BenchmarkBatchDuplicates(b *testing.B) {
	sv := New(Config{})
	defer sv.Close()
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	var jobs []string
	for i := 0; i < 32; i++ {
		jobs = append(jobs, fmt.Sprintf(`{"benchmark":"d695","width":%d}`, []int{16, 24, 32, 40}[i%4]))
	}
	body := `{"jobs":[` + strings.Join(jobs, ",") + `]}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		// Drain the stream so every job completes.
		buf := make([]byte, 32<<10)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				break
			}
		}
		resp.Body.Close()
	}
}

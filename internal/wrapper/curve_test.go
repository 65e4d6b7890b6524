package wrapper

import (
	"os"
	"path/filepath"
	"testing"

	"soctam/internal/soc"
)

// loadTestdataSOCs parses every benchmark description under the repo's
// testdata directory.
func loadTestdataSOCs(t *testing.T) map[string]*soc.SOC {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.soc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata *.soc files found")
	}
	socs := make(map[string]*soc.SOC, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := soc.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		socs[filepath.Base(p)] = s
	}
	return socs
}

// TestCurveMatchesFreshDesign is the memoization property test: for
// every core of every benchmark SOC and every width up to 64, the
// precomputed curve must reproduce the freshly computed wrapper design
// bit for bit — T(w) against both TimeTable and a fresh Time call, and
// the Pareto widths against ParetoWidths at every prefix.
func TestCurveMatchesFreshDesign(t *testing.T) {
	const maxWidth = 64
	for name, s := range loadTestdataSOCs(t) {
		cs, err := Curves(s, maxWidth)
		if err != nil {
			t.Fatalf("%s: Curves: %v", name, err)
		}
		if cs.NumCores() != len(s.Cores) || cs.MaxWidth() != maxWidth {
			t.Fatalf("%s: CurveSet shape %d×%d, want %d×%d",
				name, cs.NumCores(), cs.MaxWidth(), len(s.Cores), maxWidth)
		}
		for i := range s.Cores {
			c := &s.Cores[i]
			cv := cs.Core(i)
			table, err := TimeTable(c, maxWidth)
			if err != nil {
				t.Fatalf("%s core %d: TimeTable: %v", name, i+1, err)
			}
			for w := 1; w <= maxWidth; w++ {
				if got, want := cv.Time(w), table[w-1]; got != want {
					t.Fatalf("%s core %d: Curve.Time(%d) = %d, want %d", name, i+1, w, got, want)
				}
				fresh, err := Time(c, w)
				if err != nil {
					t.Fatalf("%s core %d width %d: Time: %v", name, i+1, w, err)
				}
				if cv.Time(w) != fresh {
					t.Fatalf("%s core %d: Curve.Time(%d) = %d, fresh Time = %d",
						name, i+1, w, cv.Time(w), fresh)
				}
			}
			for _, upTo := range []int{1, 2, 7, 16, 33, maxWidth} {
				want, err := ParetoWidths(c, upTo)
				if err != nil {
					t.Fatalf("%s core %d: ParetoWidths(%d): %v", name, i+1, upTo, err)
				}
				got := cv.ParetoUpTo(upTo)
				if len(got) != len(want) {
					t.Fatalf("%s core %d: ParetoUpTo(%d) = %v, want %v", name, i+1, upTo, got, want)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s core %d: ParetoUpTo(%d) = %v, want %v", name, i+1, upTo, got, want)
					}
				}
			}
		}
	}
}

// FuzzCurve fuzzes the memoization property over synthetic cores: any
// valid core the seeds mutate into must yield a curve identical to the
// per-width fresh computation, with the staircase non-increasing and the
// Pareto widths exactly its strict steps.
func FuzzCurve(f *testing.F) {
	f.Add(10, 20, 500, 3, uint64(7), 5, 16)
	f.Add(0, 0, 12, 0, uint64(1), 0, 9)
	f.Add(109, 32, 12336, 46, uint64(0xdeadbeef), 521, 24)
	f.Add(1, 1, 1, 1, uint64(42), 1, 1)
	f.Fuzz(func(t *testing.T, inputs, outputs, patterns, chains int, seed uint64, chainScale, maxWidth int) {
		// Clamp onto the valid-core domain; the fuzzer explores shapes,
		// not validation failures (those have their own tests).
		clamp := func(v, lo, hi int) int {
			if v < lo {
				return lo
			}
			if v > hi {
				return hi
			}
			return v
		}
		inputs = clamp(inputs, 0, 200)
		outputs = clamp(outputs, 0, 200)
		patterns = clamp(patterns, 1, 5000)
		chains = clamp(chains, 0, 24)
		chainScale = clamp(chainScale, 1, 600)
		maxWidth = clamp(maxWidth, 1, 40)
		c := soc.Core{Name: "fuzz", Inputs: inputs, Outputs: outputs, Patterns: patterns}
		// xorshift keeps the chain lengths deterministic per seed.
		x := seed | 1
		for j := 0; j < chains; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.ScanChains = append(c.ScanChains, 1+int(x%uint64(chainScale)))
		}
		if c.Validate() != nil {
			t.Skip("not a valid core")
		}
		cv, err := NewCurve(&c, maxWidth)
		if err != nil {
			t.Fatalf("NewCurve: %v", err)
		}
		prev := soc.Cycles(-1)
		for w := 1; w <= maxWidth; w++ {
			fresh, err := Time(&c, w)
			if err != nil {
				t.Fatalf("Time(%d): %v", w, err)
			}
			if cv.Time(w) != fresh {
				t.Fatalf("Curve.Time(%d) = %d, fresh Time = %d", w, cv.Time(w), fresh)
			}
			if prev >= 0 && cv.Time(w) > prev {
				t.Fatalf("staircase increases at width %d: %d > %d", w, cv.Time(w), prev)
			}
			prev = cv.Time(w)
		}
		steps := make([]int, 0, maxWidth)
		for w := 1; w <= maxWidth; w++ {
			if w == 1 || cv.Time(w) < cv.Time(w-1) {
				steps = append(steps, w)
			}
		}
		got := cv.Pareto()
		if len(got) != len(steps) {
			t.Fatalf("Pareto = %v, want strict steps %v", got, steps)
		}
		for j := range got {
			if got[j] != steps[j] {
				t.Fatalf("Pareto = %v, want strict steps %v", got, steps)
			}
		}
	})
}

// BenchmarkWrapperCurve measures the whole-SOC wrapper-curve
// precomputation on d695 at W=64 — the one-time cost every solve
// amortizes its table lookups against.
func BenchmarkWrapperCurve(b *testing.B) {
	socs := loadBenchSOC(b, "d695.soc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Curves(socs, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// loadBenchSOC parses one benchmark description for a benchmark.
func loadBenchSOC(b *testing.B, name string) *soc.SOC {
	b.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	s, err := soc.Parse(f)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

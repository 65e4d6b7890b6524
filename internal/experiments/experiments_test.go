package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quickOpt keeps experiment tests fast: two widths, few TAMs, bounded
// exact solves.
func quickOpt() Options {
	return Options{
		Widths:    []int{16, 24},
		MaxTAMs:   4,
		NodeLimit: 500_000,
	}
}

func TestNamesAndRegistryAgree(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() returned %d entries, registry has %d", len(names), len(registry))
	}
	ordered := orderedNames()
	if len(ordered) != len(registry) {
		t.Fatalf("orderedNames() has %d entries, registry has %d", len(ordered), len(registry))
	}
	seen := map[string]bool{}
	for _, n := range ordered {
		if _, ok := registry[n]; !ok {
			t.Errorf("orderedNames contains unregistered %q", n)
		}
		if seen[n] {
			t.Errorf("orderedNames repeats %q", n)
		}
		seen[n] = true
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("table99", quickOpt()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFigure2ReproducesPaper(t *testing.T) {
	tables, err := Run("figure2", quickOpt())
	if err != nil {
		t.Fatalf("figure2: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("figure2 produced %d tables, want 2", len(tables))
	}
	out := tables[1].String()
	for _, want := range []string{"180, 200, 200", "SOC testing time 200"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 2(b) missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Structure(t *testing.T) {
	tables, err := Run("table1", Options{Widths: []int{20, 24}})
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	tab := tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("table1 has %d rows, want 2", len(tab.Rows))
	}
	// The p_eval cells (B = 4, then B = 5) come from a one-worker run in
	// the paper's evaluation order, so they are exact and pinned.
	wantPEval := map[string][2]string{"20": {"12", "13"}, "24": {"15", "13"}}
	for _, row := range tab.Rows {
		if got, want := [2]string{row[2], row[5]}, wantPEval[row[0]]; got != want {
			t.Errorf("W=%s: p_eval (B=4, B=5) = %v, want %v", row[0], got, want)
		}
	}
	for _, row := range tab.Rows {
		// p_eval <= P(W,B) and efficiency in (0, 1].
		for _, group := range []int{1, 4} {
			count, err1 := strconv.Atoi(row[group])
			pEval, err2 := strconv.Atoi(row[group+1])
			eff, err3 := strconv.ParseFloat(row[group+2], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("unparseable row %v", row)
			}
			if pEval > count {
				t.Errorf("p_eval %d exceeds P %d", pEval, count)
			}
			if eff <= 0 || eff > 1 {
				t.Errorf("efficiency %v out of (0,1]", eff)
			}
		}
	}
}

func TestPPAWPairShape(t *testing.T) {
	// d695, B=2: the new method may never beat the exhaustive optimum,
	// and must stay within a few percent above it.
	tables, err := ppawPair("d695", 2, "old", "new", quickOpt())
	if err != nil {
		t.Fatalf("ppawPair: %v", err)
	}
	old, fresh := tables[0], tables[1]
	if len(old.Rows) != 2 || len(fresh.Rows) != 2 {
		t.Fatalf("row counts %d/%d, want 2/2", len(old.Rows), len(fresh.Rows))
	}
	for i := range old.Rows {
		tOld, err1 := strconv.ParseInt(old.Rows[i][3], 10, 64)
		tNew, err2 := strconv.ParseInt(fresh.Rows[i][3], 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable times %v / %v", old.Rows[i], fresh.Rows[i])
		}
		if old.Rows[i][5] != "yes" {
			t.Errorf("W=%s: exhaustive row not optimal", old.Rows[i][0])
		}
		if tNew < tOld {
			t.Errorf("W=%s: new method %d beats exhaustive optimum %d", old.Rows[i][0], tNew, tOld)
		}
		if float64(tNew) > 1.25*float64(tOld) {
			t.Errorf("W=%s: new method %d more than 25%% above optimum %d", old.Rows[i][0], tNew, tOld)
		}
		delta := fresh.Rows[i][5]
		if !strings.HasPrefix(delta, "+") && !strings.HasPrefix(delta, "-") {
			t.Errorf("delta cell %q not signed", delta)
		}
	}
}

func TestTable2WidthsDecreaseTime(t *testing.T) {
	tables, err := Run("table2", Options{Widths: []int{16, 32}, NodeLimit: 500_000})
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	if len(tables) != 4 {
		t.Fatalf("table2 produced %d tables, want 4 (a-d)", len(tables))
	}
	// In every sub-table, testing time at W=32 <= testing time at W=16.
	for _, tab := range tables {
		if len(tab.Rows) != 2 {
			t.Fatalf("%s: %d rows, want 2", tab.Title, len(tab.Rows))
		}
		t16, _ := strconv.ParseInt(tab.Rows[0][3], 10, 64)
		t32, _ := strconv.ParseInt(tab.Rows[1][3], 10, 64)
		if t32 > t16 {
			t.Errorf("%s: T(32)=%d > T(16)=%d", tab.Title, t32, t16)
		}
	}
}

func TestNPAWTableShape(t *testing.T) {
	tables, err := npawTable("d695", "test", 2, Options{Widths: []int{16, 24}, MaxTAMs: 4, NodeLimit: 300_000})
	if err != nil {
		t.Fatalf("npawTable: %v", err)
	}
	tab := tables[0]
	if len(tab.Rows) != 2 {
		t.Fatalf("npaw rows = %d, want 2", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		b, err := strconv.Atoi(row[1])
		if err != nil || b < 1 || b > 4 {
			t.Errorf("bad B cell %q", row[1])
		}
		// Partition parts sum to W.
		w, _ := strconv.Atoi(row[0])
		sum := 0
		for _, part := range strings.Split(row[2], "+") {
			v, err := strconv.Atoi(part)
			if err != nil {
				t.Fatalf("bad partition cell %q", row[2])
			}
			sum += v
		}
		if sum != w {
			t.Errorf("partition %q does not sum to W=%d", row[2], w)
		}
	}
}

func TestRangesTablesMatchPaper(t *testing.T) {
	cases := []struct {
		name     string
		patterns string // published logic pattern range
		cores    string
	}{
		{"table4", "1-785", "28 cores"},
		{"table8", "210-745", "19 cores"},
		{"table14", "11-6127", "32 cores"},
	}
	for _, tc := range cases {
		tables, err := Run(tc.name, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out := tables[0].String()
		if !strings.Contains(out, tc.patterns) {
			t.Errorf("%s missing logic pattern range %q:\n%s", tc.name, tc.patterns, out)
		}
		if !strings.Contains(out, tc.cores) {
			t.Errorf("%s missing %q in title:\n%s", tc.name, tc.cores, out)
		}
	}
}

func TestFloorCheckP31108(t *testing.T) {
	// The p31108 testing time must flatten: the flat tail starts strictly
	// before the largest width swept (the paper's Section 4.3 phenomenon).
	floor, fromWidth, err := FloorCheck(Options{
		Widths:    []int{32, 40, 48, 56, 64},
		MaxTAMs:   6,
		NodeLimit: 500_000,
	})
	if err != nil {
		t.Fatalf("FloorCheck: %v", err)
	}
	if floor <= 0 {
		t.Fatalf("floor = %d, want positive", floor)
	}
	if fromWidth >= 64 {
		t.Errorf("testing time still improving at W=64 (last change at %d); no floor", fromWidth)
	}
}

func TestBenchmarkSOCs(t *testing.T) {
	for _, name := range []string{"d695", "p21241", "p31108", "p93791"} {
		s, err := benchmarkSOC(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := benchmarkSOC("nope"); err == nil {
		t.Error("unknown SOC accepted")
	}
}

// TestServeCacheExperiment runs the serving experiment at the quick
// scale and checks the cached pass actually hit: with serveRepeats
// passes over the same widths, at most 1/serveRepeats of jobs can be
// distinct.
func TestServeCacheExperiment(t *testing.T) {
	tables, err := Run("serve", quickOpt())
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if len(tables) != 1 {
		t.Fatalf("serve produced %d tables, want 1", len(tables))
	}
	if len(tables[0].Rows) != 4 {
		t.Fatalf("serve table has %d rows, want 4 SOCs", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		jobs, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad jobs cell %q", row[1])
		}
		distinct, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("bad distinct cell %q", row[2])
		}
		if want := jobs / serveRepeats; distinct != want {
			t.Errorf("%s: %d distinct solves for %d jobs, want %d", row[0], distinct, jobs, want)
		}
		if row[4] == "0%" {
			t.Errorf("%s: zero hit rate", row[0])
		}
	}
}

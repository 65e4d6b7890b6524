package assign

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The cutoff solve is the coopt ILP engine's workhorse: given the
// incumbent c it must either prove "no assignment strictly below c"
// or produce one. Cross-check both outcomes against the unconstrained
// exact optimum on random wrapper-shaped instances.
func TestSolveExactCutoffAgainstOptimum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 7, 3)
		opt, optimal, err := SolveExact(in, ExactOptions{})
		if err != nil || !optimal {
			t.Logf("seed %d: optimal=%v err=%v", seed, optimal, err)
			return false
		}

		// Cutoff at the optimum: nothing below it, with proof.
		_, found, proven, err := SolveExactCutoff(in, ExactOptions{}, opt.Time)
		if err != nil || found || !proven {
			t.Logf("seed %d: cutoff at optimum %d: found=%v proven=%v err=%v",
				seed, opt.Time, found, proven, err)
			return false
		}

		// Cutoff just above it: the optimum must be rediscovered.
		a, found, proven, err := SolveExactCutoff(in, ExactOptions{}, opt.Time+1)
		if err != nil || !found || !proven {
			t.Logf("seed %d: cutoff above optimum: found=%v proven=%v err=%v",
				seed, found, proven, err)
			return false
		}
		if a.Time != opt.Time {
			t.Logf("seed %d: cutoff solve found %d, optimum is %d", seed, a.Time, opt.Time)
			return false
		}
		return a.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// RelaxationBound must be a genuine lower bound on the exact optimum —
// the coopt engine prunes whole partitions on its word — and must be
// deterministic, because pruning decisions feed bit-for-bit golden
// replays.
func TestRelaxationBoundSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, 7, 3)
		rb, ok, err := RelaxationBound(in)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !ok {
			// The simplex gave up (iteration limit): allowed, the caller
			// just skips the prune. It must not happen on toy instances.
			t.Logf("seed %d: relaxation gave up on a %dx%d instance",
				seed, in.NumCores(), in.NumTAMs())
			return false
		}
		opt, optimal, err := SolveExact(in, ExactOptions{})
		if err != nil || !optimal {
			return false
		}
		if rb > opt.Time {
			t.Logf("seed %d: relaxation bound %d above optimum %d", seed, rb, opt.Time)
			return false
		}
		rb2, ok2, err := RelaxationBound(in)
		if err != nil || !ok2 || rb2 != rb {
			t.Logf("seed %d: relaxation bound drifted %d -> %d", seed, rb, rb2)
			return false
		}
		return rb >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

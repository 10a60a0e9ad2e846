package promql

import (
	"math/rand"
	"testing"

	"repro/internal/tsdb"
)

// GeneratedQueries returns n queries of the differential tests' random
// generator (exprGen) drawn from seed, for tests outside the package.
func GeneratedQueries(seed int64, n int) []string {
	gen := &exprGen{rng: rand.New(rand.NewSource(seed))}
	out := make([]string, n)
	for i := range out {
		out[i] = gen.query()
	}
	return out
}

// EquivRun is one random run of the differential tests for tests outside the
// package: its rng, a draw of the generator and the expression count, all set
// by the -equiv.seed and -equiv.exprs flags.
func EquivRun(t *testing.T) (rng *rand.Rand, query func() string, exprs int) {
	rng, gen := equivRun(t)
	return rng, gen.query, *equivExprs
}

// EquivStorage is the differential tests' random dataset (equivStorage).
func EquivStorage(t testing.TB, rng *rand.Rand) *tsdb.DB { return equivStorage(t, rng) }

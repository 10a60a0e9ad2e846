package promql

import "math/rand"

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

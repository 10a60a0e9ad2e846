package promql_test

import (
	"testing"

	"repro/internal/promql"
	"repro/internal/rules/ceemsrules"
)

// FuzzParseExpr: whatever text the parser is handed, it returns an error or
// an expression whose String() parses again — never a panic. The seeds are
// the differential tests' random queries and every expression the CEEMS
// recording rules evaluate.
func FuzzParseExpr(f *testing.F) {
	for _, q := range promql.GeneratedQueries(1, 200) {
		f.Add(q)
	}
	for _, g := range ceemsrules.AllGroups(ceemsrules.DefaultOptions()) {
		for _, r := range g.Rules {
			f.Add(r.Expr)
		}
	}
	f.Fuzz(func(t *testing.T, q string) {
		expr, err := promql.ParseExpr(q)
		if err != nil {
			return
		}
		if _, err := promql.ParseExpr(expr.String()); err != nil {
			t.Fatalf("%q parses, but its String() %q does not: %v", q, expr.String(), err)
		}
	})
}

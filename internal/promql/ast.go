// Package promql implements the query-language substrate of the CEEMS
// stack: a PromQL-subset lexer, parser and evaluation engine sufficient for
// the paper's energy-estimation recording rules (Eq. 1) and dashboard
// queries — vector selectors, range selectors, rate/increase and
// *_over_time functions, aggregations with by/without, arithmetic and
// comparison binary operators with on/ignoring vector matching, and
// label_replace.
package promql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/labels"
)

// Expr is a parsed PromQL expression node.
type Expr interface {
	// Type returns the value type the expression evaluates to.
	Type() ValueType
	String() string
}

// ValueType enumerates PromQL value types.
type ValueType string

const (
	ValueScalar ValueType = "scalar"
	ValueVector ValueType = "vector"
	ValueMatrix ValueType = "matrix"
	ValueString ValueType = "string"
)

// NumberLiteral is a scalar constant.
type NumberLiteral struct {
	Val float64
}

func (*NumberLiteral) Type() ValueType  { return ValueScalar }
func (n *NumberLiteral) String() string { return fmt.Sprintf("%g", n.Val) }

// StringLiteral is a string constant (only used as a function argument).
type StringLiteral struct {
	Val string
}

func (*StringLiteral) Type() ValueType  { return ValueString }
func (s *StringLiteral) String() string { return fmt.Sprintf("%q", s.Val) }

// VectorSelector selects instant vectors by matchers.
type VectorSelector struct {
	Name     string
	Matchers []*labels.Matcher
	Offset   time.Duration
}

func (*VectorSelector) Type() ValueType { return ValueVector }
func (v *VectorSelector) String() string {
	var parts []string
	for _, m := range v.Matchers {
		// Skip only the matcher synthesized from the metric name itself; an
		// explicit, conflicting __name__ matcher must survive reprinting —
		// the query cache keys on String(), and two selectors that match
		// different series must never share a key.
		if m.Name == labels.MetricName && m.Type == labels.MatchEqual && m.Value == v.Name {
			continue
		}
		parts = append(parts, m.String())
	}
	s := v.Name
	if len(parts) > 0 {
		s += "{" + strings.Join(parts, ",") + "}"
	}
	if v.Offset > 0 {
		s += fmt.Sprintf(" offset %s", v.Offset)
	}
	return s
}

// MatrixSelector selects a range of samples per series.
type MatrixSelector struct {
	VS    *VectorSelector
	Range time.Duration
}

func (*MatrixSelector) Type() ValueType { return ValueMatrix }
func (m *MatrixSelector) String() string {
	off := ""
	if m.VS.Offset > 0 {
		off = fmt.Sprintf(" offset %s", m.VS.Offset)
	}
	base := (&VectorSelector{Name: m.VS.Name, Matchers: m.VS.Matchers}).String()
	return fmt.Sprintf("%s[%s]%s", base, m.Range, off)
}

// Call is a function call.
type Call struct {
	Func *Function
	Args []Expr
}

func (c *Call) Type() ValueType { return c.Func.ReturnType }
func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Func.Name, strings.Join(args, ", "))
}

// AggregateExpr applies sum/avg/... over a vector, grouped by labels.
type AggregateExpr struct {
	Op       ItemType // SUM, AVG, ...
	Expr     Expr
	Param    Expr // for topk/bottomk/quantile
	Grouping []string
	Without  bool
}

func (*AggregateExpr) Type() ValueType { return ValueVector }
func (a *AggregateExpr) String() string {
	mod := ""
	if a.Without {
		mod = fmt.Sprintf(" without (%s)", strings.Join(a.Grouping, ", "))
	} else if len(a.Grouping) > 0 {
		mod = fmt.Sprintf(" by (%s)", strings.Join(a.Grouping, ", "))
	}
	param := ""
	if a.Param != nil {
		param = a.Param.String() + ", "
	}
	return fmt.Sprintf("%s%s(%s%s)", itemName(a.Op), mod, param, a.Expr.String())
}

// VectorMatching describes how binary-operator operands join.
type VectorMatching struct {
	On      bool // true: match on listed labels; false: ignoring them
	Labels  []string
	Card    MatchCardinality
	Include []string // group_left/right extra labels from the "one" side
}

// MatchCardinality is the many/one relation of a binary op.
type MatchCardinality int

const (
	CardOneToOne MatchCardinality = iota
	CardManyToOne
	CardOneToMany
)

// BinaryExpr combines two expressions with an operator.
type BinaryExpr struct {
	Op         ItemType
	LHS, RHS   Expr
	Matching   *VectorMatching
	ReturnBool bool
}

func (b *BinaryExpr) Type() ValueType {
	if b.LHS.Type() == ValueScalar && b.RHS.Type() == ValueScalar {
		return ValueScalar
	}
	return ValueVector
}

func (b *BinaryExpr) String() string {
	boolMod := ""
	if b.ReturnBool {
		boolMod = " bool"
	}
	match := ""
	if b.Matching != nil && len(b.Matching.Labels) > 0 {
		kw := "ignoring"
		if b.Matching.On {
			kw = "on"
		}
		match = fmt.Sprintf(" %s (%s)", kw, strings.Join(b.Matching.Labels, ", "))
		switch b.Matching.Card {
		case CardManyToOne:
			match += fmt.Sprintf(" group_left (%s)", strings.Join(b.Matching.Include, ", "))
		case CardOneToMany:
			match += fmt.Sprintf(" group_right (%s)", strings.Join(b.Matching.Include, ", "))
		}
	}
	return fmt.Sprintf("%s %s%s%s %s", b.LHS, itemName(b.Op), boolMod, match, b.RHS)
}

// ParenExpr wraps a parenthesized expression.
type ParenExpr struct {
	Expr Expr
}

func (p *ParenExpr) Type() ValueType { return p.Expr.Type() }
func (p *ParenExpr) String() string  { return "(" + p.Expr.String() + ")" }

// UnaryExpr is -expr or +expr.
type UnaryExpr struct {
	Op   ItemType
	Expr Expr
}

func (u *UnaryExpr) Type() ValueType { return u.Expr.Type() }
func (u *UnaryExpr) String() string  { return itemName(u.Op) + u.Expr.String() }

// WalkSelectors calls fn for every selector of the expression tree, in
// evaluation order: node is the *VectorSelector itself, or the
// *MatrixSelector wrapping it (visited as a unit, its inner VectorSelector
// is not visited again); vs is the vector selector either way.
func WalkSelectors(e Expr, fn func(node Expr, vs *VectorSelector)) {
	switch t := e.(type) {
	case *VectorSelector:
		fn(t, t)
	case *MatrixSelector:
		fn(t, t.VS)
	case *ParenExpr:
		WalkSelectors(t.Expr, fn)
	case *UnaryExpr:
		WalkSelectors(t.Expr, fn)
	case *AggregateExpr:
		WalkSelectors(t.Expr, fn)
		if t.Param != nil {
			WalkSelectors(t.Param, fn)
		}
	case *BinaryExpr:
		WalkSelectors(t.LHS, fn)
		WalkSelectors(t.RHS, fn)
	case *Call:
		for _, a := range t.Args {
			WalkSelectors(a, fn)
		}
	}
}

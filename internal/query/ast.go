package query

import (
	"fmt"
	"strings"
)

// CmpOp is a comparison operator in a predicate.
type CmpOp uint8

// Comparison operators.
const (
	OpEQ CmpOp = iota // =
	OpNE              // <> or !=
	OpLT              // <
	OpLE              // <=
	OpGT              // >
	OpGE              // >=
	OpIN              // IN (v1, v2, ...)
)

// String returns the SQL spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpIN:
		return "IN"
	}
	return "?"
}

// AggFunc is an aggregate function applied in the projection list.
type AggFunc uint8

// Aggregate functions.
const (
	AggNone AggFunc = iota
	AggSum
	AggCount
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return ""
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "agg?"
}

// ColumnRef names a column, optionally qualified by table name or alias.
type ColumnRef struct {
	Table  string // alias or table name; empty until resolved if unqualified
	Column string
}

// String renders the reference in SQL form.
func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// ArithOp is an arithmetic operator inside aggregate expressions.
type ArithOp uint8

// Arithmetic operators.
const (
	ArithMul ArithOp = iota
	ArithAdd
	ArithSub
	ArithDiv
)

// String returns the SQL spelling of the arithmetic operator.
func (o ArithOp) String() string {
	switch o {
	case ArithMul:
		return "*"
	case ArithAdd:
		return "+"
	case ArithSub:
		return "-"
	case ArithDiv:
		return "/"
	}
	return "?"
}

// Expr is a projection expression: either a bare column or a binary
// arithmetic combination of two columns (e.g. ps_supplycost*ps_availqty in
// the paper's modified Q11 example).
type Expr struct {
	Col   ColumnRef
	Binop *BinaryExpr
}

// BinaryExpr is column-op-column arithmetic.
type BinaryExpr struct {
	Left, Right ColumnRef
	Op          ArithOp
}

// Columns returns every column the expression references.
func (e Expr) Columns() []ColumnRef {
	if e.Binop != nil {
		return []ColumnRef{e.Binop.Left, e.Binop.Right}
	}
	return []ColumnRef{e.Col}
}

// String renders the expression in SQL form.
func (e Expr) String() string {
	if e.Binop != nil {
		return e.Binop.Left.String() + e.Binop.Op.String() + e.Binop.Right.String()
	}
	return e.Col.String()
}

// SelectItem is one projection-list entry: a column, `agg(expr)`, or
// `count(*)` (Star true).
type SelectItem struct {
	Agg  AggFunc
	Expr Expr
	Star bool // count(*)
}

// String renders the item in SQL form.
func (s SelectItem) String() string {
	if s.Star {
		return "count(*)"
	}
	if s.Agg == AggNone {
		return s.Expr.String()
	}
	return fmt.Sprintf("%s(%s)", s.Agg, s.Expr)
}

// Literal is a constant in a predicate.
type Literal struct {
	IsString bool
	S        string
	F        float64 // numeric payload (ints and dates included)
}

// NumLit builds a numeric literal.
func NumLit(v float64) Literal { return Literal{F: v} }

// StrLit builds a string literal.
func StrLit(s string) Literal { return Literal{IsString: true, S: s} }

// String renders the literal in SQL form.
func (l Literal) String() string {
	if l.IsString {
		// Quotes are doubled, as the lexer reads them: rendered bare, 'a''b'
		// would end at its own middle and splice the rest into the query.
		return "'" + strings.ReplaceAll(l.S, "'", "''") + "'"
	}
	return trimFloat(l.F)
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// Predicate is a conjunct: either column-op-literal (a local filter),
// column-op-column (a join condition), or column IN (set).
type Predicate struct {
	Left  ColumnRef
	Op    CmpOp
	Lit   Literal
	Right *ColumnRef // non-nil for column-to-column predicates
	// Set carries the literal list for OpIN.
	Set []Literal
}

// IsJoin reports whether the predicate compares two columns.
func (p Predicate) IsJoin() bool { return p.Right != nil }

// String renders the predicate in SQL form.
func (p Predicate) String() string {
	if p.Right != nil {
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, *p.Right)
	}
	if p.Op == OpIN {
		var b strings.Builder
		fmt.Fprintf(&b, "%s IN (", p.Left)
		for i, l := range p.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(l.String())
		}
		b.WriteString(")")
		return b.String()
	}
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Lit)
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Label returns the name the rest of the query uses for this table.
func (t TableRef) Label() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// String renders the reference in SQL form.
func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// Join is one JOIN clause: the joined table and its ON conjuncts (at least
// one column-to-column condition, plus optional local filters).
type Join struct {
	Table TableRef
	On    []Predicate
}

// HavingPred is one HAVING conjunct: an aggregate compared to a literal
// (e.g. sum(x) > 100, count(*) >= 5).
type HavingPred struct {
	Agg  AggFunc
	Expr Expr
	Star bool // count(*)
	Op   CmpOp
	Lit  Literal
}

// String renders the conjunct in SQL form.
func (h HavingPred) String() string {
	left := fmt.Sprintf("%s(%s)", h.Agg, h.Expr)
	if h.Star {
		left = "count(*)"
	}
	return fmt.Sprintf("%s %s %s", left, h.Op, h.Lit)
}

// OrderItem is one ORDER BY entry: a column, or an aggregate that must
// also appear in the SELECT list (ORDER BY sum(x) DESC — the TPC-H Q3
// top-k idiom). For aggregate items the planner binds Col to the upstream
// aggregation job's output column.
type OrderItem struct {
	Col  ColumnRef
	Desc bool
	// Agg/Expr/Star describe an aggregate sort key; Agg == AggNone means a
	// plain column key.
	Agg  AggFunc
	Expr Expr
	Star bool
}

// IsAggregate reports whether the item sorts by an aggregate value.
func (o OrderItem) IsAggregate() bool { return o.Agg != AggNone || o.Star }

// String renders the item in SQL form.
func (o OrderItem) String() string {
	left := o.Col.String()
	if o.Star {
		left = "count(*)"
	} else if o.Agg != AggNone {
		left = fmt.Sprintf("%s(%s)", o.Agg, o.Expr)
	}
	if o.Desc {
		return left + " DESC"
	}
	return left
}

// Query is a single-block analytic query.
type Query struct {
	Select  []SelectItem
	From    TableRef
	Joins   []Join
	Where   []Predicate // conjunctive
	GroupBy []ColumnRef
	Having  []HavingPred
	OrderBy []OrderItem
	Limit   int64 // -1 when absent
	// MapJoinTables holds tables named in a /*+ MAPJOIN(t, ...) */ hint:
	// joins against them compile to map-only broadcast joins, the Hive-era
	// "map-side join" the paper classifies as a minor operator.
	MapJoinTables []string
}

// HasAggregates reports whether any projection item aggregates.
func (q *Query) HasAggregates() bool {
	for _, s := range q.Select {
		if s.Agg != AggNone || s.Star {
			return true
		}
	}
	return false
}

// Tables returns every table reference in FROM/JOIN order.
func (q *Query) Tables() []TableRef {
	ts := []TableRef{q.From}
	for _, j := range q.Joins {
		ts = append(ts, j.Table)
	}
	return ts
}

// String renders the query as SQL.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.MapJoinTables) > 0 {
		b.WriteString("/*+ MAPJOIN(")
		b.WriteString(strings.Join(q.MapJoinTables, ", "))
		b.WriteString(") */ ")
	}
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM ")
	b.WriteString(q.From.String())
	for _, j := range q.Joins {
		b.WriteString(" JOIN ")
		b.WriteString(j.Table.String())
		b.WriteString(" ON ")
		for i, p := range j.On {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(q.Having) > 0 {
		b.WriteString(" HAVING ")
		for i, h := range q.Having {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(h.String())
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

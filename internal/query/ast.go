package query

import "strconv"

// Rendering: every node appends its SQL form to a byte slice through an
// appendTo method, so Query.String — the normalizer behind the plan-cache
// key — builds its text in one buffer; the String methods wrap them, each
// with a buffer its usual rendering fits, which stays on the stack.

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

func (c ColumnRef) appendTo(b []byte) []byte {
	if c.Table != "" {
		b = append(append(b, c.Table...), '.')
	}
	return append(b, c.Column...)
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

// String renders the expression in SQL form.
func (e Expr) String() string { return string(e.appendTo(make([]byte, 0, 64))) }

// SameText reports whether e and o render to the same SQL text, without
// allocating for expressions whose renderings fit 64 bytes.
func (e Expr) SameText(o Expr) bool {
	var a, b [64]byte
	return string(e.appendTo(a[:0])) == string(o.appendTo(b[:0]))
}

func (e Expr) appendTo(b []byte) []byte {
	if e.Binop != nil {
		b = append(e.Binop.Left.appendTo(b), e.Binop.Op.String()...)
		return e.Binop.Right.appendTo(b)
	}
	return e.Col.appendTo(b)
}

// appendAgg renders an aggregate call: count(*) when star, else agg(e).
func appendAgg(b []byte, agg AggFunc, e Expr, star bool) []byte {
	if star {
		return append(b, "count(*)"...)
	}
	b = append(append(b, agg.String()...), '(')
	return append(e.appendTo(b), ')')
}

// SelectItem is one projection-list entry: a column, `agg(expr)`, or
// `count(*)` (Star true).
type SelectItem struct {
	Agg  AggFunc
	Expr Expr
	Star bool // count(*)
}

// String renders the item in SQL form.
func (s SelectItem) String() string { return string(s.appendTo(make([]byte, 0, 64))) }

func (s SelectItem) appendTo(b []byte) []byte {
	if s.Agg == AggNone && !s.Star {
		return s.Expr.appendTo(b)
	}
	return appendAgg(b, s.Agg, s.Expr, s.Star)
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
func (l Literal) String() string { return string(l.appendTo(make([]byte, 0, 64))) }

func (l Literal) appendTo(b []byte) []byte {
	if !l.IsString {
		return strconv.AppendFloat(b, l.F, 'g', -1, 64) // fmt's %g
	}
	// Quotes are doubled, as the lexer reads them: rendered bare, 'a''b'
	// would end at its own middle and splice the rest into the query.
	b = append(b, '\'')
	for i := 0; i < len(l.S); i++ {
		if l.S[i] == '\'' {
			b = append(b, '\'')
		}
		b = append(b, l.S[i])
	}
	return append(b, '\'')
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
func (p Predicate) String() string { return string(p.appendTo(make([]byte, 0, 64))) }

func (p *Predicate) appendTo(b []byte) []byte {
	b = append(append(append(p.Left.appendTo(b), ' '), p.Op.String()...), ' ')
	switch {
	case p.Right != nil:
		return p.Right.appendTo(b)
	case p.Op == OpIN:
		b = append(b, '(')
		for i, l := range p.Set {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = l.appendTo(b)
		}
		return append(b, ')')
	}
	return p.Lit.appendTo(b)
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
func (t TableRef) String() string { return string(t.appendTo(make([]byte, 0, 64))) }

func (t TableRef) appendTo(b []byte) []byte {
	b = append(b, t.Name...)
	if t.Alias != "" {
		b = append(append(b, ' '), t.Alias...)
	}
	return b
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
func (h HavingPred) String() string { return string(h.appendTo(make([]byte, 0, 64))) }

func (h HavingPred) appendTo(b []byte) []byte {
	b = append(appendAgg(b, h.Agg, h.Expr, h.Star), ' ')
	return h.Lit.appendTo(append(append(b, h.Op.String()...), ' '))
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
func (o OrderItem) String() string { return string(o.appendTo(make([]byte, 0, 64))) }

func (o OrderItem) appendTo(b []byte) []byte {
	if o.IsAggregate() {
		b = appendAgg(b, o.Agg, o.Expr, o.Star)
	} else {
		b = o.Col.appendTo(b)
	}
	if o.Desc {
		b = append(b, " DESC"...)
	}
	return b
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

// String renders the query as SQL, in a buffer all but the longest queries
// fit (the generated pool's mean is 200 bytes).
func (q *Query) String() string { return string(q.Append(make([]byte, 0, 512))) }

// sep returns what precedes element i of a rendered list.
func sep(i int, first, next string) string {
	if i == 0 {
		return first
	}
	return next
}

// Append appends String's rendering of the query to b, for a caller that
// builds a longer key around it in one buffer.
func (q *Query) Append(b []byte) []byte {
	b = append(b, "SELECT "...)
	for i, t := range q.MapJoinTables {
		b = append(append(b, sep(i, "/*+ MAPJOIN(", ", ")...), t...)
	}
	if len(q.MapJoinTables) > 0 {
		b = append(b, ") */ "...)
	}
	for i, s := range q.Select {
		b = s.appendTo(append(b, sep(i, "", ", ")...))
	}
	b = q.From.appendTo(append(b, " FROM "...))
	for _, j := range q.Joins {
		b = j.Table.appendTo(append(b, " JOIN "...))
		for i := range j.On {
			b = j.On[i].appendTo(append(b, sep(i, " ON ", " AND ")...))
		}
	}
	for i := range q.Where {
		b = q.Where[i].appendTo(append(b, sep(i, " WHERE ", " AND ")...))
	}
	for i, c := range q.GroupBy {
		b = c.appendTo(append(b, sep(i, " GROUP BY ", ", ")...))
	}
	for i, h := range q.Having {
		b = h.appendTo(append(b, sep(i, " HAVING ", " AND ")...))
	}
	for i, o := range q.OrderBy {
		b = o.appendTo(append(b, sep(i, " ORDER BY ", ", ")...))
	}
	if q.Limit >= 0 {
		b = strconv.AppendInt(append(b, " LIMIT "...), q.Limit, 10)
	}
	return b
}

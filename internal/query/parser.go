package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Parse compiles HiveQL text into a Query AST. The supported grammar:
//
//	SELECT item (',' item)*
//	FROM table [alias]
//	  (JOIN table [alias] ON pred (AND pred)*)*
//	[WHERE pred (AND pred)*]
//	[GROUP BY col (',' col)*]
//	[ORDER BY col [ASC|DESC] (',' col)*]
//	[LIMIT n]
//
//	item := col | agg '(' col [arith col] ')' | COUNT '(' '*' ')'
//	pred := col op (literal | col)          op := = <> != < <= > >=
//	      | col BETWEEN lit AND lit         (expands to >= AND <=)
//	      | col IN '(' lit (',' lit)* ')'
//
// A /*+ MAPJOIN(t, ...) */ hint directly after SELECT marks joins against
// the named tables as map-only broadcast joins. Keywords are
// case-insensitive. A trailing semicolon is permitted.
//
// The query is gathered clause by clause into scratch on Parse's stack and
// then copied into one exact-size slab per element kind: WHERE and every
// ON share one []Predicate, GROUP BY shares one []ColumnRef with the
// right-hand sides of column-to-column predicates, and IN sets share one
// []Literal. Each slice handed out is cut with a 3-index slice, so an
// append by a consumer never writes into a neighbour.
func Parse(src string) (*Query, error) {
	var p parser
	p.lx.src = src
	p.tok = p.lx.next()
	p.ahead = p.lx.next()
	q, err := p.parseQuery()
	if err != nil {
		if lexErr := p.lx.rest(); lexErr != nil {
			return nil, lexErr
		}
		return nil, err
	}
	return q, nil
}

// scratch gathers one kind of AST element in the parser, spilling to the
// heap past eight.
type scratch[T any] struct {
	fixed [8]T
	n     int
	spill []T
}

func (s *scratch[T]) add(v T) {
	if s.n < len(s.fixed) {
		s.fixed[s.n] = v
	} else {
		s.spill = append(s.spill, v)
	}
	s.n++
}

func (s *scratch[T]) at(i int) T {
	if i < len(s.fixed) {
		return s.fixed[i]
	}
	return s.spill[i-len(s.fixed)]
}

// slab copies the gathered elements into an exact-size slice, nil if none.
func (s *scratch[T]) slab() []T {
	if s.n == 0 {
		return nil
	}
	out := make([]T, s.n)
	copy(out[copy(out, s.fixed[:min(s.n, len(s.fixed))]):], s.spill)
	return out
}

// Until the slabs exist, a column-to-column predicate's right-hand side
// and an expression's arithmetic point here; build rebinds them, in
// parse order, to their slab elements.
var (
	pendingRight ColumnRef
	pendingBinop BinaryExpr
)

type parser struct {
	lx     lexer
	tok    token // the current token
	ahead  token // the one after it
	sel    scratch[SelectItem]
	joins  scratch[Join]
	onEnd  scratch[int]       // per join, where its ON conjuncts end in preds
	preds  scratch[Predicate] // every ON conjunct, then WHERE
	cols   scratch[ColumnRef] // right-hand sides in preds order, then GROUP BY
	inLen  scratch[int]       // per IN predicate, its set's length in lits
	lits   scratch[Literal]
	bins   scratch[BinaryExpr] // in SELECT, HAVING, ORDER BY order
	having scratch[HavingPred]
	order  scratch[OrderItem]
}

func (p *parser) cur() token { return p.tok }

func (p *parser) advance() {
	p.tok = p.ahead
	p.ahead = p.lx.next()
}

func (p *parser) next() token { t := p.tok; p.advance(); return t }

// keyword reports whether the current token is the given keyword (matched
// case-insensitively) and consumes it if so.
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) symbol(s string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.symbol(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	where := t.text
	if t.kind == tokEOF {
		where = "end of input"
	}
	return fmt.Errorf("query: %s at offset %d (near %q)", fmt.Sprintf(format, args...), t.pos, where)
}

// aggCall reports whether the current token opens an aggregate call,
// agg '(', and which aggregate.
func (p *parser) aggCall() (AggFunc, bool) {
	if p.tok.kind != tokIdent || p.ahead.kind != tokSymbol || p.ahead.text != "(" {
		return AggNone, false
	}
	return aggOf(p.tok.text)
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if !p.keyword("select") {
		return nil, p.errf("expected SELECT")
	}
	if p.cur().kind == tokHint {
		hint := p.next()
		tables, err := parseMapJoinHint(hint.text)
		if err != nil {
			return nil, fmt.Errorf("query: %v at offset %d", err, hint.pos)
		}
		q.MapJoinTables = tables
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		p.sel.add(item)
		if !p.symbol(",") {
			break
		}
	}
	if !p.keyword("from") {
		return nil, p.errf("expected FROM")
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	q.From = tr
	for p.keyword("join") {
		j := Join{}
		if j.Table, err = p.parseTableRef(); err != nil {
			return nil, err
		}
		if !p.keyword("on") {
			return nil, p.errf("expected ON")
		}
		hasJoinCond := false
		for {
			isJoin, err := p.parsePredicateList()
			if err != nil {
				return nil, err
			}
			hasJoinCond = hasJoinCond || isJoin
			if !p.keyword("and") {
				break
			}
		}
		if !hasJoinCond {
			return nil, fmt.Errorf("query: JOIN %s has no column-to-column condition", j.Table.Name)
		}
		p.joins.add(j)
		p.onEnd.add(p.preds.n)
	}
	if p.keyword("where") {
		for {
			if _, err := p.parsePredicateList(); err != nil {
				return nil, err
			}
			if !p.keyword("and") {
				break
			}
		}
	}
	if p.keyword("group") {
		if !p.keyword("by") {
			return nil, p.errf("expected BY after GROUP")
		}
		for {
			c, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			p.cols.add(c)
			if !p.symbol(",") {
				break
			}
		}
	}
	if p.keyword("having") {
		for {
			h, err := p.parseHaving()
			if err != nil {
				return nil, err
			}
			p.having.add(h)
			if !p.keyword("and") {
				break
			}
		}
	}
	if p.keyword("order") {
		if !p.keyword("by") {
			return nil, p.errf("expected BY after ORDER")
		}
		for {
			item, err := p.parseOrderItem()
			if err != nil {
				return nil, err
			}
			if p.keyword("desc") {
				item.Desc = true
			} else {
				p.keyword("asc")
			}
			p.order.add(item)
			if !p.symbol(",") {
				break
			}
		}
	}
	if p.keyword("limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("query: expected number after LIMIT at offset %d", t.pos)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("query: invalid LIMIT %q", t.text)
		}
		q.Limit = n
	}
	p.symbol(";")
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	p.build(q)
	return q, nil
}

// build copies the gathered clauses into q's slabs and rebinds the
// pending pointers, in the order they were parsed.
func (p *parser) build(q *Query) {
	q.Select = p.sel.slab()
	q.Having = p.having.slab()
	q.OrderBy = p.order.slab()
	if bins := p.bins.slab(); bins != nil {
		k := 0
		bind := func(e *Expr) {
			if e.Binop != nil {
				e.Binop = &bins[k]
				k++
			}
		}
		for i := range q.Select {
			bind(&q.Select[i].Expr)
		}
		for i := range q.Having {
			bind(&q.Having[i].Expr)
		}
		for i := range q.OrderBy {
			bind(&q.OrderBy[i].Expr)
		}
	}
	cols, lits, preds := p.cols.slab(), p.lits.slab(), p.preds.slab()
	r, l, in := 0, 0, 0
	for i := range preds {
		pr := &preds[i]
		if pr.Right != nil {
			pr.Right = &cols[r]
			r++
		}
		if pr.Op == OpIN {
			n := l + p.inLen.at(in)
			pr.Set = lits[l:n:n]
			l, in = n, in+1
		}
	}
	if r < len(cols) {
		q.GroupBy = cols[r:len(cols):len(cols)]
	}
	q.Joins = p.joins.slab()
	on := 0
	for i := range q.Joins {
		end := p.onEnd.at(i)
		q.Joins[i].On = preds[on:end:end]
		on = end
	}
	if on < len(preds) {
		q.Where = preds[on:len(preds):len(preds)]
	}
}

// aggOf returns the aggregate an identifier names, in any case.
func aggOf(name string) (AggFunc, bool) {
	for _, a := range [...]AggFunc{AggSum, AggCount, AggAvg, AggMin, AggMax} {
		if strings.EqualFold(name, a.String()) {
			return a, true
		}
	}
	return AggNone, false
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if agg, ok := p.aggCall(); ok {
		p.advance() // agg name
		p.advance() // '('
		if agg == AggCount && p.symbol("*") {
			if err := p.expectSymbol(")"); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: AggCount, Star: true}, nil
		}
		expr, err := p.parseExpr()
		if err != nil {
			return SelectItem{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Agg: agg, Expr: expr}, nil
	}
	expr, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: expr}, nil
}

var arithOps = map[string]ArithOp{"*": ArithMul, "+": ArithAdd, "-": ArithSub, "/": ArithDiv}

// parseExpr parses col or col-arith-col.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseColumnRef()
	if err != nil {
		return Expr{}, err
	}
	t := p.cur()
	if t.kind == tokSymbol {
		if op, ok := arithOps[t.text]; ok {
			p.advance()
			right, err := p.parseColumnRef()
			if err != nil {
				return Expr{}, err
			}
			p.bins.add(BinaryExpr{Left: left, Right: right, Op: op})
			return Expr{Binop: &pendingBinop}, nil
		}
	}
	return Expr{Col: left}, nil
}

// reserved keywords cannot start a column reference.
var reserved = map[string]bool{
	"select": true, "from": true, "join": true, "on": true, "where": true,
	"group": true, "order": true, "by": true, "limit": true, "and": true,
	"asc": true, "desc": true, "between": true, "in": true, "having": true,
}

// isReserved reports whether an identifier, in any case, is a reserved
// keyword. Identifiers are ASCII, so it lowers them in a stack buffer
// rather than through strings.ToLower, which would allocate for the
// upper-case keywords a rendered query is full of.
func isReserved(ident string) bool {
	var b [len("between")]byte
	if len(ident) > len(b) {
		return false
	}
	for i := 0; i < len(ident); i++ {
		c := ident[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	return reserved[string(b[:len(ident)])]
}

// Identifiers are case-insensitive, as in HiveQL: table, alias and
// column names fold to lower case where the parser takes them (the
// lexer cannot — keywords are tokIdent too), so LINEITEM and lineitem
// are one query and one cache key. ToLower returns an
// already-lower-case name unchanged, without allocating.
func (p *parser) parseColumnRef() (ColumnRef, error) {
	t := p.cur()
	if t.kind != tokIdent || isReserved(t.text) {
		return ColumnRef{}, p.errf("expected column reference")
	}
	name := strings.ToLower(t.text)
	p.advance()
	if p.symbol(".") {
		t2 := p.next()
		if t2.kind != tokIdent {
			return ColumnRef{}, fmt.Errorf("query: expected column after %q. at offset %d", t.text, t2.pos)
		}
		return ColumnRef{Table: name, Column: strings.ToLower(t2.text)}, nil
	}
	return ColumnRef{Column: name}, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.next()
	if t.kind != tokIdent || isReserved(t.text) {
		return TableRef{}, fmt.Errorf("query: expected table name at offset %d (near %q)", t.pos, t.text)
	}
	tr := TableRef{Name: strings.ToLower(t.text)}
	if a := p.cur(); a.kind == tokIdent && !isReserved(a.text) {
		tr.Alias = strings.ToLower(a.text)
		p.advance()
	}
	return tr, nil
}

var cmpOps = map[string]CmpOp{
	"=": OpEQ, "<>": OpNE, "!=": OpNE, "<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE,
}

// parsePredicateList parses one surface-syntax conjunct into preds: a
// comparison, an IN list, or a BETWEEN (which expands to two conjuncts:
// >= lo AND <= hi). It reports whether the conjunct compares two columns.
func (p *parser) parsePredicateList() (bool, error) {
	left, err := p.parseColumnRef()
	if err != nil {
		return false, err
	}
	if p.keyword("between") {
		lo, err := p.parseLiteral()
		if err != nil {
			return false, err
		}
		if !p.keyword("and") {
			return false, p.errf("expected AND in BETWEEN")
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return false, err
		}
		p.preds.add(Predicate{Left: left, Op: OpGE, Lit: lo})
		p.preds.add(Predicate{Left: left, Op: OpLE, Lit: hi})
		return false, nil
	}
	if p.keyword("in") {
		if err := p.expectSymbol("("); err != nil {
			return false, err
		}
		n := 0
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return false, err
			}
			p.lits.add(lit)
			n++
			if !p.symbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return false, err
		}
		p.inLen.add(n)
		p.preds.add(Predicate{Left: left, Op: OpIN})
		return false, nil
	}
	t := p.next()
	op, ok := cmpOps[t.text]
	if t.kind != tokSymbol || !ok {
		return false, fmt.Errorf("query: expected comparison operator at offset %d (near %q)", t.pos, t.text)
	}
	pr := Predicate{Left: left, Op: op}
	v := p.cur()
	switch v.kind {
	case tokNumber, tokString:
		lit, err := p.parseLiteral()
		if err != nil {
			return false, err
		}
		pr.Lit = lit
	case tokIdent:
		right, err := p.parseColumnRef()
		if err != nil {
			return false, err
		}
		p.cols.add(right)
		pr.Right = &pendingRight
	default:
		return false, p.errf("expected literal or column on right side of predicate")
	}
	p.preds.add(pr)
	return pr.Right != nil, nil
}

// parseOrderItem parses one ORDER BY key: a column or an aggregate call.
func (p *parser) parseOrderItem() (OrderItem, error) {
	if agg, ok := p.aggCall(); ok {
		p.advance() // agg name
		p.advance() // '('
		item := OrderItem{Agg: agg}
		if agg == AggCount && p.symbol("*") {
			item.Star = true
		} else {
			expr, err := p.parseExpr()
			if err != nil {
				return OrderItem{}, err
			}
			item.Expr = expr
		}
		if err := p.expectSymbol(")"); err != nil {
			return OrderItem{}, err
		}
		return item, nil
	}
	c, err := p.parseColumnRef()
	if err != nil {
		return OrderItem{}, err
	}
	return OrderItem{Col: c}, nil
}

// parseHaving parses one HAVING conjunct: agg '(' expr ')' op literal.
func (p *parser) parseHaving() (HavingPred, error) {
	t := p.next()
	if t.kind != tokIdent {
		return HavingPred{}, fmt.Errorf("query: expected aggregate in HAVING at offset %d", t.pos)
	}
	agg, ok := aggOf(t.text)
	if !ok {
		return HavingPred{}, fmt.Errorf("query: HAVING requires an aggregate, got %q at offset %d", t.text, t.pos)
	}
	if err := p.expectSymbol("("); err != nil {
		return HavingPred{}, err
	}
	h := HavingPred{Agg: agg}
	if agg == AggCount && p.symbol("*") {
		h.Star = true
	} else {
		expr, err := p.parseExpr()
		if err != nil {
			return HavingPred{}, err
		}
		h.Expr = expr
	}
	if err := p.expectSymbol(")"); err != nil {
		return HavingPred{}, err
	}
	o := p.next()
	op, ok := cmpOps[o.text]
	if o.kind != tokSymbol || !ok {
		return HavingPred{}, fmt.Errorf("query: expected comparison in HAVING at offset %d", o.pos)
	}
	h.Op = op
	lit, err := p.parseLiteral()
	if err != nil {
		return HavingPred{}, err
	}
	h.Lit = lit
	return h, nil
}

// parseLiteral parses a number or string constant.
func (p *parser) parseLiteral() (Literal, error) {
	v := p.next()
	switch v.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(v.text, 64)
		if err != nil {
			return Literal{}, fmt.Errorf("query: invalid number %q", v.text)
		}
		return NumLit(f), nil
	case tokString:
		return StrLit(v.text), nil
	}
	return Literal{}, fmt.Errorf("query: expected literal at offset %d (near %q)", v.pos, v.text)
}

// parseMapJoinHint parses "MAPJOIN(t1, t2, ...)" hint bodies.
func parseMapJoinHint(body string) ([]string, error) {
	s := strings.TrimSpace(body)
	if !hasFoldedPrefix(s, "mapjoin") {
		return nil, fmt.Errorf("unsupported hint %q (only MAPJOIN)", s)
	}
	rest := strings.TrimSpace(s[len("mapjoin"):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return nil, fmt.Errorf("malformed MAPJOIN hint %q", s)
	}
	inner := rest[1 : len(rest)-1]
	tables := make([]string, 0, strings.Count(inner, ",")+1)
	for more := true; more; {
		var part string
		part, inner, more = strings.Cut(inner, ",")
		name := strings.TrimSpace(part)
		if name == "" {
			return nil, fmt.Errorf("empty table in MAPJOIN hint %q", s)
		}
		tables = append(tables, strings.ToLower(name))
	}
	return tables, nil
}

// hasFoldedPrefix reports whether strings.ToLower(s) begins with the
// lower-case ASCII prefix, without building the lowered copy when s is
// ASCII (a hint body need not be).
func hasFoldedPrefix(s, prefix string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strings.HasPrefix(strings.ToLower(s), prefix)
		}
	}
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

package query

import (
	"fmt"
	"strconv"
	"strings"
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
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// keyword reports whether the current token is the given keyword (matched
// case-insensitively) and consumes it if so.
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) symbol(s string) bool {
	t := p.cur()
	if t.kind == tokSymbol && t.text == s {
		p.i++
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
		q.Select = append(q.Select, item)
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
		for {
			prs, err := p.parsePredicateList()
			if err != nil {
				return nil, err
			}
			j.On = append(j.On, prs...)
			if !p.keyword("and") {
				break
			}
		}
		hasJoinCond := false
		for _, pr := range j.On {
			if pr.IsJoin() {
				hasJoinCond = true
			}
		}
		if !hasJoinCond {
			return nil, fmt.Errorf("query: JOIN %s has no column-to-column condition", j.Table.Name)
		}
		q.Joins = append(q.Joins, j)
	}
	if p.keyword("where") {
		for {
			prs, err := p.parsePredicateList()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, prs...)
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
			q.GroupBy = append(q.GroupBy, c)
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
			q.Having = append(q.Having, h)
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
			q.OrderBy = append(q.OrderBy, item)
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
	return q, nil
}

var aggNames = map[string]AggFunc{
	"sum": AggSum, "count": AggCount, "avg": AggAvg, "min": AggMin, "max": AggMax,
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.cur()
	if t.kind == tokIdent {
		if agg, ok := aggNames[strings.ToLower(t.text)]; ok && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.i += 2 // agg name and '('
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
			p.i++
			right, err := p.parseColumnRef()
			if err != nil {
				return Expr{}, err
			}
			return Expr{Binop: &BinaryExpr{Left: left, Right: right, Op: op}}, nil
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

// Identifiers are case-insensitive, as in HiveQL: table, alias and
// column names fold to lower case where the parser takes them (the
// lexer cannot — keywords are tokIdent too), so LINEITEM and lineitem
// are one query and one cache key. ToLower returns an
// already-lower-case name unchanged, without allocating.
func (p *parser) parseColumnRef() (ColumnRef, error) {
	t := p.cur()
	name := strings.ToLower(t.text)
	if t.kind != tokIdent || reserved[name] {
		return ColumnRef{}, p.errf("expected column reference")
	}
	p.i++
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
	name := strings.ToLower(t.text)
	if t.kind != tokIdent || reserved[name] {
		return TableRef{}, fmt.Errorf("query: expected table name at offset %d (near %q)", t.pos, t.text)
	}
	tr := TableRef{Name: name}
	if a := p.cur(); a.kind == tokIdent {
		if alias := strings.ToLower(a.text); !reserved[alias] {
			tr.Alias = alias
			p.i++
		}
	}
	return tr, nil
}

var cmpOps = map[string]CmpOp{
	"=": OpEQ, "<>": OpNE, "!=": OpNE, "<": OpLT, "<=": OpLE, ">": OpGT, ">=": OpGE,
}

// parsePredicateList parses one surface-syntax conjunct: a comparison, an
// IN list, or a BETWEEN (which expands to two conjuncts: >= lo AND <= hi).
func (p *parser) parsePredicateList() ([]Predicate, error) {
	left, err := p.parseColumnRef()
	if err != nil {
		return nil, err
	}
	if p.keyword("between") {
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if !p.keyword("and") {
			return nil, p.errf("expected AND in BETWEEN")
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return []Predicate{
			{Left: left, Op: OpGE, Lit: lo},
			{Left: left, Op: OpLE, Lit: hi},
		}, nil
	}
	if p.keyword("in") {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		pr := Predicate{Left: left, Op: OpIN}
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			pr.Set = append(pr.Set, lit)
			if !p.symbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return []Predicate{pr}, nil
	}
	t := p.next()
	op, ok := cmpOps[t.text]
	if t.kind != tokSymbol || !ok {
		return nil, fmt.Errorf("query: expected comparison operator at offset %d (near %q)", t.pos, t.text)
	}
	pr := Predicate{Left: left, Op: op}
	v := p.cur()
	switch v.kind {
	case tokNumber, tokString:
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		pr.Lit = lit
	case tokIdent:
		right, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		pr.Right = &right
	default:
		return nil, p.errf("expected literal or column on right side of predicate")
	}
	return []Predicate{pr}, nil
}

// parseOrderItem parses one ORDER BY key: a column or an aggregate call.
func (p *parser) parseOrderItem() (OrderItem, error) {
	t := p.cur()
	if t.kind == tokIdent {
		if agg, ok := aggNames[strings.ToLower(t.text)]; ok &&
			p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			p.i += 2
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
	agg, ok := aggNames[strings.ToLower(t.text)]
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
	lower := strings.ToLower(s)
	if !strings.HasPrefix(lower, "mapjoin") {
		return nil, fmt.Errorf("unsupported hint %q (only MAPJOIN)", s)
	}
	rest := strings.TrimSpace(s[len("mapjoin"):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return nil, fmt.Errorf("malformed MAPJOIN hint %q", s)
	}
	inner := rest[1 : len(rest)-1]
	var tables []string
	for _, part := range strings.Split(inner, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			return nil, fmt.Errorf("empty table in MAPJOIN hint %q", s)
		}
		tables = append(tables, strings.ToLower(name))
	}
	return tables, nil
}

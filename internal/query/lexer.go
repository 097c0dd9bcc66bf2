package query

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators: ( ) , . * + - / = <> < <= > >= !=
	tokHint   // /*+ ... */ optimizer hint; text carries the hint body
)

// token is one lexical unit with its source position for error messages.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer splits HiveQL text into tokens. Keywords are returned as tokIdent;
// the parser matches them case-insensitively.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises src or returns a positioned error.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '/' && l.pos+2 < len(l.src) && l.src[l.pos+1] == '*' && l.src[l.pos+2] == '+':
			if err := l.lexHint(); err != nil {
				return nil, err
			}
		case isIdentStart(c):
			l.lexIdent()
		case isDigit(c):
			l.lexNumber()
		case c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if !l.lexSymbol() {
				return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, start)
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		// /* ... */ block comments. /*+ ... */ is an optimizer hint and is
		// emitted as a token rather than skipped.
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*' {
			if l.pos+2 < len(l.src) && l.src[l.pos+2] == '+' {
				return // leave for lexHint via the main loop
			}
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
			continue
		}
		return
	}
}

// lexHint consumes a /*+ ... */ optimizer hint and emits its body.
func (l *lexer) lexHint() error {
	start := l.pos
	l.pos += 3 // "/*+"
	body := l.pos
	for l.pos+1 < len(l.src) {
		if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
			l.toks = append(l.toks, token{kind: tokHint, text: l.src[body:l.pos], pos: start})
			l.pos += 2
			return nil
		}
		l.pos++
	}
	return fmt.Errorf("query: unterminated hint at offset %d", start)
}

// Identifiers are ASCII: the lexer walks bytes, and a byte ≥ 0x80 taken
// for a Latin-1 letter would be rewritten by the parser's ToLower into a
// U+FFFD the lexer then refuses — a normalized text that does not parse.
func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	// An exponent, taken only when complete (e[+-]digits): Literal.String
	// prints 19940101 as 1.9940101e+07, and that must lex as one number.
	if p := l.pos; p < len(l.src) && (l.src[p] == 'e' || l.src[p] == 'E') {
		p++
		if p < len(l.src) && (l.src[p] == '+' || l.src[p] == '-') {
			p++
		}
		if p < len(l.src) && isDigit(l.src[p]) {
			for p < len(l.src) && isDigit(l.src[p]) {
				p++
			}
			l.pos = p
		}
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("query: unterminated string literal at offset %d", start)
}

// twoCharSymbols are matched before single characters.
var twoCharSymbols = []string{"<>", "<=", ">=", "!="}

func (l *lexer) lexSymbol() bool {
	rest := l.src[l.pos:]
	for _, s := range twoCharSymbols {
		if strings.HasPrefix(rest, s) {
			l.toks = append(l.toks, token{kind: tokSymbol, text: s, pos: l.pos})
			l.pos += len(s)
			return true
		}
	}
	switch rest[0] {
	case '(', ')', ',', '.', '*', '+', '-', '/', '=', '<', '>', ';':
		l.toks = append(l.toks, token{kind: tokSymbol, text: rest[:1], pos: l.pos})
		l.pos++
		return true
	}
	return false
}

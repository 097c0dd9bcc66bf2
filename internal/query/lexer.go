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
	tokErr    // what follows a lexical error
)

// token is one lexical unit with its source position for error messages.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer splits HiveQL text into tokens on demand, so that no token list is
// built. Keywords are returned as tokIdent; the parser matches them
// case-insensitively. After a lexical error every token is tokErr and err
// holds the error.
type lexer struct {
	src string
	pos int
	err error
}

// next returns the next token, tokEOF at the end of the text.
func (l *lexer) next() token {
	if l.err != nil {
		return token{kind: tokErr, pos: l.pos}
	}
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}
	}
	start := l.pos
	c := l.src[l.pos]
	var t token
	switch {
	case c == '/' && l.pos+2 < len(l.src) && l.src[l.pos+1] == '*' && l.src[l.pos+2] == '+':
		t, l.err = l.lexHint()
	case isIdentStart(c):
		t = l.lexIdent()
	case isDigit(c):
		t = l.lexNumber()
	case c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		t = l.lexNumber()
	case c == '\'':
		t, l.err = l.lexString()
	default:
		var ok bool
		if t, ok = l.lexSymbol(); !ok {
			l.err = fmt.Errorf("query: unexpected character %q at offset %d", c, start)
		}
	}
	if l.err != nil {
		return token{kind: tokErr, pos: start}
	}
	return t
}

// rest lexes what is left of the text and returns the first lexical error
// in it, so that, as when the whole text was lexed before parsing, a
// lexical error anywhere wins over a parse error before it.
func (l *lexer) rest() error {
	for l.err == nil && l.next().kind != tokEOF {
	}
	return l.err
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

// lexHint consumes a /*+ ... */ optimizer hint and returns its body.
func (l *lexer) lexHint() (token, error) {
	start := l.pos
	l.pos += 3 // "/*+"
	body := l.pos
	for l.pos+1 < len(l.src) {
		if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
			t := token{kind: tokHint, text: l.src[body:l.pos], pos: start}
			l.pos += 2
			return t, nil
		}
		l.pos++
	}
	return token{}, fmt.Errorf("query: unterminated hint at offset %d", start)
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

func (l *lexer) lexIdent() token {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
}

func (l *lexer) lexNumber() token {
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
	return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}
}

// lexString returns a string literal's value: a substring of the source,
// unless a doubled quote (”) escapes a quote inside it.
func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	body, escaped := l.pos, false
	for l.pos < len(l.src) {
		if l.src[l.pos] == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				escaped = true
				l.pos += 2
				continue
			}
			text := l.src[body:l.pos]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			l.pos++
			return token{kind: tokString, text: text, pos: start}, nil
		}
		l.pos++
	}
	return token{}, fmt.Errorf("query: unterminated string literal at offset %d", start)
}

// twoCharSymbols are matched before single characters.
var twoCharSymbols = []string{"<>", "<=", ">=", "!="}

func (l *lexer) lexSymbol() (token, bool) {
	rest := l.src[l.pos:]
	for _, s := range twoCharSymbols {
		if strings.HasPrefix(rest, s) {
			t := token{kind: tokSymbol, text: s, pos: l.pos}
			l.pos += len(s)
			return t, true
		}
	}
	switch rest[0] {
	case '(', ')', ',', '.', '*', '+', '-', '/', '=', '<', '>', ';':
		t := token{kind: tokSymbol, text: rest[:1], pos: l.pos}
		l.pos++
		return t, true
	}
	return token{}, false
}

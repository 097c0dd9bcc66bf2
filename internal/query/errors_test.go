package query

import "testing"

// TestParseErrorsPinned holds Parse's error strings byte for byte: they
// reach clients as -ERR replies. The last rows place each lexical error
// after a parse error, because a lexical error anywhere in the text wins
// over an earlier parse error. The strings were recorded before the parser
// moved to per-query slabs.
func TestParseErrorsPinned(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{``, `query: expected SELECT at offset 0 (near "end of input")`},
		{`FROM t`, `query: expected SELECT at offset 0 (near "FROM")`},
		{`SELECT a`, `query: expected FROM at offset 8 (near "end of input")`},
		{`SELECT a FROM t JOIN u`, `query: expected ON at offset 22 (near "end of input")`},
		{`SELECT a FROM t JOIN u ON`, `query: expected column reference at offset 25 (near "end of input")`},
		{`SELECT a FROM t JOIN u ON a = 1`, `query: JOIN u has no column-to-column condition`},
		{`SELECT a FROM t WHERE`, `query: expected column reference at offset 21 (near "end of input")`},
		{`SELECT a FROM t WHERE a = 1 AND`, `query: expected column reference at offset 31 (near "end of input")`},
		{`SELECT a FROM t WHERE a =`, `query: expected literal or column on right side of predicate at offset 25 (near "end of input")`},
		{`SELECT a FROM t WHERE a BETWEEN 1 OR 2`, `query: expected AND in BETWEEN at offset 34 (near "OR")`},
		{`SELECT a FROM t WHERE a IN (1, b)`, `query: expected literal at offset 31 (near "b")`},
		{`SELECT a FROM t WHERE a = 1e999`, `query: invalid number "1e999"`},
		{`SELECT a FROM t LIMIT x`, `query: expected number after LIMIT at offset 22`},
		{`SELECT a FROM t LIMIT -5`, `query: invalid LIMIT "-5"`},
		{`SELECT a FROM t LIMIT 1.5`, `query: invalid LIMIT "1.5"`},
		{`SELECT a FROM t LIMIT 99999999999999999999`, `query: invalid LIMIT "99999999999999999999"`},
		{`SELECT a FROM t GROUP a`, `query: expected BY after GROUP at offset 22 (near "a")`},
		{`SELECT a FROM t ORDER a`, `query: expected BY after ORDER at offset 22 (near "a")`},
		{`SELECT a FROM t HAVING a > 1`, `query: HAVING requires an aggregate, got "a" at offset 23`},
		{`SELECT a FROM t HAVING 5 > 1`, `query: expected aggregate in HAVING at offset 23`},
		{`SELECT a FROM t HAVING sum(a) > b`, `query: expected literal at offset 32 (near "b")`},
		{`SELECT a FROM t HAVING count(*) 5`, `query: expected comparison in HAVING at offset 32`},
		{`SELECT from FROM t`, `query: expected column reference at offset 7 (near "from")`},
		{`SELECT a FROM t WHERE select = 1`, `query: expected column reference at offset 22 (near "select")`},
		{`SELECT a FROM select`, `query: expected table name at offset 14 (near "select")`},
		{`SELECT t. FROM t`, `query: expected FROM at offset 15 (near "t")`},
		{`SELECT t.5 FROM t`, `query: expected column after "t". at offset 9`},
		{`SELECT sum(a FROM t`, `query: expected ")" at offset 13 (near "FROM")`},
		{`SELECT count(*) FROM t ORDER BY sum(x`, `query: expected ")" at offset 37 (near "end of input")`},
		{`SELECT a FROM t extra junk`, `query: unexpected trailing input at offset 22 (near "junk")`},
		{`SELECT /*+ MAPJOIN t */ a FROM t`, `query: malformed MAPJOIN hint "MAPJOIN t" at offset 7`},
		{`SELECT /*+ MAPJOIN(t,) */ a FROM t`, `query: empty table in MAPJOIN hint "MAPJOIN(t,)" at offset 7`},
		{`SELECT /*+ BROADCAST(t) */ a FROM t`, `query: unsupported hint "BROADCAST(t)" (only MAPJOIN) at offset 7`},
		{`SELECT a FROM t WHERE a ! 1`, `query: unexpected character '!' at offset 24`},
		{`SELECT a FROM t WHERE a = 'oops`, `query: unterminated string literal at offset 26`},
		// A lexical error after a parse error wins.
		{`FROM t WHERE a = 'oops`, `query: unterminated string literal at offset 17`},
		{`SELECT a t WHERE /*+ x`, `query: unterminated hint at offset 17`},
		{`SELECT FROM t WHERE a ~ 1`, `query: unexpected character '~' at offset 22`},
		{`SELECT a FROM t LIMIT x 'tail`, `query: unterminated string literal at offset 24`},
		{`SELECT a FROM t JOIN u ON a = 1 WHERE b = 'it''s' @`, `query: unexpected character '@' at offset 50`},
		{`SELECT /*+ MAPJOIN t */ a FROM t WHERE x = 'unterminated`, `query: unterminated string literal at offset 43`},
		{`SELECT a FROM t JOIN u ON a = b AND 'x`, `query: unterminated string literal at offset 36`},
	} {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want %q", tc.src, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Parse(%q):\n got %q\nwant %q", tc.src, err, tc.want)
		}
	}
}

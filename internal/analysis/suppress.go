package analysis

import (
	"go/token"
	"strings"
)

// Suppression comments let a human override a finding after review:
//
//	x := sum == total //lint:allow saqpvet/floatcmp bit-identical by construction
//
// or, on the line directly above the flagged statement:
//
//	//lint:allow saqpvet/errdrop best-effort cleanup
//	_ = f.Close()
//
// A suppression names exactly one analyzer, applies to findings on the
// comment's own line and on the following line, and MUST carry a
// reason: a directive without one is ignored and reported, so a bare
// "//lint:allow saqpvet/errdrop" silences nothing. Directives naming
// an analyzer the running suite does not know are reported too — a
// typo would otherwise suppress nothing while looking reviewed. There
// is no file-wide or analyzer-wildcard form: every override stays
// adjacent to the code it excuses, with room for its justification.
// Several directives may share one line, each with its own reason.
const (
	suppressMarker = "//lint:allow"
	suppressPrefix = "saqpvet/"
)

// directive is one parsed //lint:allow occurrence, valid or not.
type directive struct {
	pos    token.Position
	name   string
	reason string
}

// suppressions maps filename -> line -> set of suppressed analyzer names.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) add(file string, line int, analyzer string) {
	byLine := s[file]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	set := byLine[line]
	if set == nil {
		set = make(map[string]bool)
		byLine[line] = set
	}
	set[analyzer] = true
}

// allows reports whether a finding by the named analyzer at pos is
// covered by a suppression comment.
func (s suppressions) allows(analyzer string, pos token.Position) bool {
	byLine := s[pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pos.Line][analyzer]
}

// collectSuppressions parses every saqpvet directive in the package.
// Only directives carrying a reason are honored in the returned
// suppression table; all directives, malformed ones included, come
// back for validation.
func collectSuppressions(pkg *Package) (suppressions, []directive) {
	s := make(suppressions)
	var ds []directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				segs := strings.Split(c.Text, suppressMarker)
				for _, seg := range segs[1:] {
					fields := strings.Fields(seg)
					if len(fields) == 0 || !strings.HasPrefix(fields[0], suppressPrefix) {
						continue // some other tool's lint:allow dialect
					}
					name := strings.TrimPrefix(fields[0], suppressPrefix)
					if !plainName(name) {
						// Prose ABOUT the mechanism — a quoted example,
						// "saqpvet/<name>" with a placeholder, or a
						// sentence ending right after the name. Real
						// analyzer names are bare lowercase identifiers.
						continue
					}
					// A further directive's reason ends where the next
					// marker begins — Split already cut there, so the
					// remaining fields are this directive's reason.
					reason := strings.Join(fields[1:], " ")
					pos := pkg.Fset.Position(c.Pos())
					ds = append(ds, directive{pos: pos, name: name, reason: reason})
					if reason != "" {
						// The comment's own line (trailing form) and
						// the next line (preceding form).
						s.add(pos.Filename, pos.Line, name)
						s.add(pos.Filename, pos.Line+1, name)
					}
				}
			}
		}
	}
	return s, ds
}

// plainName reports whether s looks like an analyzer name: a nonempty
// run of lowercase letters and digits, the shape every registered
// analyzer uses.
func plainName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// validateDirectives turns malformed directives into diagnostics:
// unknown analyzer names and missing reasons both mean the author
// believes something is suppressed when nothing is. Directives in test
// files are skipped, matching the analyzers' own scope. The resulting
// diagnostics carry the pseudo-analyzer name "suppress" and cannot
// themselves be suppressed.
func validateDirectives(ds []directive, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if strings.HasSuffix(d.pos.Filename, "_test.go") {
			continue
		}
		switch {
		case !known[d.name]:
			out = append(out, Diagnostic{
				Analyzer: "suppress",
				Pos:      d.pos,
				Message: "//lint:allow names unknown analyzer saqpvet/" + d.name +
					"; the directive suppresses nothing (is it a typo?)",
			})
		case d.reason == "":
			out = append(out, Diagnostic{
				Analyzer: "suppress",
				Pos:      d.pos,
				Message: "//lint:allow saqpvet/" + d.name +
					" has no reason; append why the finding is acceptable — reasonless directives are ignored",
			})
		}
	}
	return out
}

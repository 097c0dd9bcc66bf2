package learn

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestLearningDocAgrees holds docs/LEARNING.md to the code: its knob
// table is learn.Config field for field at Config.WithDefaults' values
// (100 / 50 / 0.05), and the promotion rule it states is the one the
// registry applies — checked by driving a registry across the margin.
func TestLearningDocAgrees(t *testing.T) {
	data, err := os.ReadFile("../../docs/LEARNING.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	cfg := reflect.ValueOf(Config{}.WithDefaults())
	rows := regexp.MustCompile("(?m)^\\| `([A-Za-z]+)` \\| ([^ |]+) \\|").FindAllStringSubmatch(doc, -1)
	if len(rows) != cfg.NumField() {
		t.Fatalf("knob table has %d rows, learn.Config has %d fields", len(rows), cfg.NumField())
	}
	for i, row := range rows {
		if name := cfg.Type().Field(i).Name; row[1] != name {
			t.Errorf("knob table row %d is %s, learn.Config field %d is %s", i, row[1], i, name)
			continue
		}
		want := fmt.Sprint(cfg.Field(i).Interface())
		if cfg.Field(i).Kind() == reflect.Pointer {
			want = "nil"
		}
		if row[2] != want {
			t.Errorf("docs/LEARNING.md says %s defaults to %s, Config.WithDefaults says %s", row[1], row[2], want)
		}
	}

	const rule = "challenger < champion·(1−margin)"
	if !strings.Contains(doc, rule) {
		t.Fatalf("docs/LEARNING.md no longer states the promotion rule %q", rule)
	}
	// The rule at the documented default margin: with both windows full, a
	// challenger 4% better than the champion stays a challenger, one 6%
	// better is promoted.
	for _, c := range []struct {
		challenger float64
		promoted   bool
	}{{0.96, false}, {0.94, true}} {
		r := NewRegistry(Config{Window: 2, MinSamples: 10})
		feedRegistry(r, 1, 12) // past the cold-start bootstrap: a champion serves
		before := r.version
		r.champWin, r.challWin = newWindow(2), newWindow(2)
		for i := 0; i < 2; i++ {
			r.champWin.push(1)
			r.challWin.push(c.challenger)
		}
		r.maybePromoteLocked()
		if got := r.version == before+1; got != c.promoted {
			t.Errorf("challenger window at %.2f of the champion's: promoted = %v, want %v", c.challenger, got, c.promoted)
		}
	}
}

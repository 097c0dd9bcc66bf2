package fault

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"saqp/internal/obs"
)

// TestFaultsDocAgrees holds docs/FAULTS.md to the code: the fault-class
// table names exactly the Spec's knobs and only metrics the metric table
// declares, and the default-plan table is the normalized DefaultSpec,
// field for field.
func TestFaultsDocAgrees(t *testing.T) {
	data, err := os.ReadFile("../../docs/FAULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	section := func(from, to string) string {
		i, j := strings.Index(doc, from), strings.Index(doc, to)
		if i < 0 || j < i {
			t.Fatalf("docs/FAULTS.md lost its %q … %q sections", from, to)
		}
		return doc[i:j]
	}
	classes := section("## The fault classes", "## The default plan")
	defaults := section("## The default plan", "## Mechanics worth noting")

	spec := reflect.TypeOf(Spec{})
	placement := map[string]bool{"Seed": true, "Nodes": true, "HorizonSec": true}
	classRows := regexp.MustCompile(`(?m)^\| [A-Z][^|]+\|[^|]+\|([^|]+)\|([^|]+)\|$`).FindAllStringSubmatch(classes, -1)
	if len(classRows) != 6 {
		t.Fatalf("fault-class table has %d lines, want its heading and 5 classes", len(classRows))
	}
	classRows = classRows[1:]
	named := map[string]bool{}
	metrics := map[string]bool{}
	for _, m := range obs.MetricTable() {
		metrics[m.Name] = true
	}
	ticked := regexp.MustCompile("`([A-Za-z_.]+)`")
	for _, row := range classRows {
		for _, k := range ticked.FindAllStringSubmatch(row[1], -1) {
			if _, ok := spec.FieldByName(k[1]); !ok {
				t.Errorf("docs/FAULTS.md names knob %s, which fault.Spec does not have", k[1])
			}
			named[k[1]] = true
		}
		for _, m := range ticked.FindAllStringSubmatch(row[2], -1) {
			if !metrics[m[1]] {
				t.Errorf("docs/FAULTS.md names metric %s, which obs.MetricTable does not declare", m[1])
			}
		}
	}
	for i := 0; i < spec.NumField(); i++ {
		if name := spec.Field(i).Name; !placement[name] && !named[name] {
			t.Errorf("fault.Spec.%s is in no row of docs/FAULTS.md's fault-class table", name)
		}
	}

	got := reflect.ValueOf(NewPlan(DefaultSpec(7)).Spec())
	rows := regexp.MustCompile("(?m)^\\| `([A-Za-z]+)` \\| ([0-9.]+) \\|$").FindAllStringSubmatch(defaults, -1)
	if len(rows) != spec.NumField()-1 {
		t.Errorf("default-plan table has %d rows, fault.Spec has %d fields besides Seed", len(rows), spec.NumField()-1)
	}
	for _, row := range rows {
		f := got.FieldByName(row[1])
		if !f.IsValid() {
			t.Errorf("default-plan table names %s, which fault.Spec does not have", row[1])
			continue
		}
		if v := fmt.Sprint(f.Interface()); v != row[2] {
			t.Errorf("default plan has %s = %s, docs/FAULTS.md says %s", row[1], v, row[2])
		}
	}
}

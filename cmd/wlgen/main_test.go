package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunIsDeterministic pins wlgen's contract: the same (mix, gap,
// seed) emits byte-identical JSON, each Table 2 mix is 100 items in
// arrival order, and an unknown mix is an error rather than an empty
// workload.
func TestRunIsDeterministic(t *testing.T) {
	for _, mix := range []string{"bing", "facebook"} {
		var first, second bytes.Buffer
		if err := run(&first, mix, 12, 7); err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if err := run(&second, mix, 12, 7); err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: two runs with the same seed differ", mix)
		}
		var out struct {
			Name  string     `json:"name"`
			Items []itemJSON `json:"items"`
		}
		if err := json.Unmarshal(first.Bytes(), &out); err != nil {
			t.Fatalf("%s: output is not JSON: %v", mix, err)
		}
		if out.Name != mix || len(out.Items) != 100 {
			t.Errorf("%s: name %q with %d items, want %q with 100", mix, out.Name, len(out.Items), mix)
		}
		for i := 1; i < len(out.Items); i++ {
			if out.Items[i].ArrivalSec < out.Items[i-1].ArrivalSec {
				t.Errorf("%s: item %d arrives at %g, before item %d at %g",
					mix, i, out.Items[i].ArrivalSec, i-1, out.Items[i-1].ArrivalSec)
			}
		}
	}
	var buf bytes.Buffer
	if err := run(&buf, "yahoo", 12, 7); err == nil || buf.Len() != 0 {
		t.Errorf("unknown mix: err = %v with %d bytes written, want an error and no output", err, buf.Len())
	}
}

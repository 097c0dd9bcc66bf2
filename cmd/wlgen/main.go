// Command wlgen emits a workload description as JSON: the query mix of the
// paper's Table 2 (Bing or Facebook composition) instantiated over the
// synthetic TPC-H/TPC-DS schemas, with Poisson arrival offsets.
//
// Usage:
//
//	wlgen -mix bing -gap 12 -seed 7 > bing.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"saqp/internal/workload"
)

// itemJSON is the serialised form of one workload entry.
type itemJSON struct {
	SQL        string  `json:"sql"`
	Shape      string  `json:"shape"`
	Bin        int     `json:"bin"`
	ScaleFac   float64 `json:"scale_factor"`
	ArrivalSec float64 `json:"arrival_sec"`
}

func main() {
	var (
		mix  = flag.String("mix", "bing", "workload mix: bing or facebook")
		gap  = flag.Float64("gap", 12, "mean Poisson inter-arrival gap (seconds)")
		seed = flag.Uint64("seed", 2018, "generator seed")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"wlgen emits a workload description as JSON: the query mix of the\n"+
				"paper's Table 2 (Bing or Facebook composition) over the synthetic\n"+
				"TPC-H/TPC-DS schemas, with Poisson arrival offsets.\n\n"+
				"usage: wlgen [flags] > workload.json\n\n"+
				"example:\n"+
				"  wlgen -mix bing -gap 12 -seed 7 > bing.json\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(os.Stdout, *mix, *gap, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "wlgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, mix string, gap float64, seed uint64) error {
	comp, err := workload.Composition(mix)
	if err != nil {
		return err
	}
	wl, err := workload.BuildWorkload(mix, comp, gap, seed)
	if err != nil {
		return err
	}
	out := struct {
		Name  string     `json:"name"`
		Items []itemJSON `json:"items"`
	}{Name: wl.Name}
	for _, it := range wl.Items {
		out.Items = append(out.Items, itemJSON{
			SQL:        it.Query.String(),
			Shape:      it.Shape.String(),
			Bin:        it.Bin,
			ScaleFac:   it.SF,
			ArrivalSec: it.ArrivalSec,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Command dccs-verify checks a DCCS result against its graph: every core
// must be exactly the d-CC of its layer set, layers and vertices must be
// strictly increasing, layer sets must be distinct and of size s, and
// the reported cover size must match. Results are the JSON produced by
// `dccs -json`.
//
// The graph may be in the text edge-list format or the .mlgb binary
// format; the magic bytes are sniffed, as in the dccs command.
//
// Usage:
//
//	dccs -algo bu -d 4 -s 3 -k 10 -json graph.mlg > result.json
//	dccs-verify -d 4 -s 3 -k 10 graph.mlg result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	dccs "repro"
)

func main() {
	d := flag.Int("d", 4, "minimum degree threshold d the result was computed with")
	s := flag.Int("s", 3, "minimum support threshold s")
	k := flag.Int("k", 10, "result count k")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dccs-verify [flags] <graph.mlg|graph.mlgb> <result.json>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	g, err := dccs.ReadGraphFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	raw, err := os.ReadFile(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	var res dccs.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		fail(fmt.Errorf("parsing %s: %w", flag.Arg(1), err))
	}
	if err := dccs.Validate(g, dccs.Options{D: *d, S: *s, K: *k}, &res); err != nil {
		fail(err)
	}
	fmt.Printf("OK: %d cores, cover %d, all cores are exact %d-CCs\n",
		len(res.Cores), res.CoverSize, *d)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dccs-verify: %v\n", err)
	os.Exit(1)
}

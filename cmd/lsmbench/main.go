// Command lsmbench runs the experiment suite that regenerates the
// tutorial's performance claims (experiments E1–E19; see DESIGN.md for
// the index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	lsmbench                 # run everything at small scale
//	lsmbench -e E3,E4        # run selected experiments
//	lsmbench -scale full     # 10x data for smoother numbers
//	lsmbench -list           # list experiments and claims
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lsmkv/internal/bench"
)

func main() {
	var (
		experiments = flag.String("e", "", "comma-separated experiment ids (default: all)")
		scaleFlag   = flag.String("scale", "small", "small | full")
		list        = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *experiments == "" {
		if err := bench.RunAll(os.Stdout, scale); err != nil {
			fmt.Fprintln(os.Stderr, "lsmbench:", err)
			os.Exit(1)
		}
		return
	}
	for _, id := range strings.Split(*experiments, ",") {
		e, ok := bench.Find(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "lsmbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		if err := bench.RunOne(e, os.Stdout, scale); err != nil {
			fmt.Fprintf(os.Stderr, "lsmbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}

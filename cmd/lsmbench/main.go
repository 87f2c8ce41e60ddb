// Command lsmbench runs the experiment suite that regenerates the
// tutorial's performance claims (experiments E1–E19; see DESIGN.md for
// the index and EXPERIMENTS.md for recorded results). The experiments
// return their tables as data (internal/bench); this is where they are
// printed.
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
	"io"
	"os"
	"strings"
	"time"

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

	selected := bench.Registry()
	if *experiments != "" {
		selected = nil
		for _, id := range strings.Split(*experiments, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "lsmbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		if err := run(os.Stdout, e, scale); err != nil {
			fmt.Fprintf(os.Stderr, "lsmbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}

// run executes one experiment and prints its header, tables and timing.
func run(w io.Writer, e bench.Experiment, scale bench.Scale) error {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", e.ID, e.Title)
	fmt.Fprintf(w, "claim: %s\n\n", e.Claim)
	start := time.Now()
	tables, err := e.Run(scale)
	if err != nil {
		return err
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		printTable(w, t)
	}
	fmt.Fprintf(w, "[%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds())
	return nil
}

// printTable renders t with aligned columns, its caption above and its
// note below. Floats print with three decimals, everything else as %v.
func printTable(w io.Writer, t *bench.Table) {
	rows := make([][]string, len(t.Rows))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for r, cells := range t.Rows {
		rows[r] = make([]string, len(cells))
		for i, v := range cells {
			if f, ok := v.(float64); ok {
				rows[r][i] = fmt.Sprintf("%.3f", f)
			} else {
				rows[r][i] = fmt.Sprint(v)
			}
			if i < len(widths) && len(rows[r][i]) > widths[i] {
				widths[i] = len(rows[r][i])
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if t.Caption != "" {
		fmt.Fprintln(w, t.Caption)
	}
	fmt.Fprintln(w, line(t.Header))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, line(sep))
	for _, r := range rows {
		fmt.Fprintln(w, line(r))
	}
	if t.Note != "" {
		fmt.Fprintln(w, t.Note)
	}
}

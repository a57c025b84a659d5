// Command experiments regenerates every table and figure of the paper's
// evaluation (internal/papereval, experiments E1–E20) and prints the
// reports as one markdown document.
//
// Usage:
//
//	experiments [-scale quick|full] [-only E1,E5] [-out report.md]
//
// With -out the document is also written to the given file, a
// paper-vs-measured record of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/papereval"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment prefixes to run (e.g. E1,E5)")
	out := flag.String("out", "", "optional output file for the markdown report")
	flag.Parse()

	var s papereval.Scale
	switch *scale {
	case "quick":
		s = papereval.Quick
	case "full":
		s = papereval.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scale)
		os.Exit(2)
	}

	var filters []string
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			filters = append(filters, strings.TrimSpace(f))
		}
	}
	keep := func(id string) bool {
		if len(filters) == 0 {
			return true
		}
		for _, f := range filters {
			// Match "E1" exactly against the leading token so that "E1"
			// does not also select E10..E17.
			token := strings.Fields(id)[0]
			if token == f {
				return true
			}
		}
		return false
	}

	var sb strings.Builder
	sb.WriteString("# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(&sb, "Generated by `cmd/experiments -scale %s` on %s.\n\n", *scale,
		time.Now().Format("2006-01-02"))
	sb.WriteString("Each section restates a claim from *Stabilizing Consensus with the Power of\n")
	sb.WriteString("Two Choices* (Doerr, Goldberg, Minder, Sauerwald, Scheideler; SPAA 2011),\n")
	sb.WriteString("shows the measured table, and records whether the measured *shape* matches.\n")
	sb.WriteString("Absolute constants differ from the paper's asymptotics by design.\n\n")

	start := time.Now()
	ran := 0
	for _, entry := range papereval.Registry() {
		if !keep(entry.Token) {
			continue
		}
		t0 := time.Now()
		report := entry.Run(s)
		report.Render(&sb)
		fmt.Printf("done: %-8s %8s  %s\n", entry.Token,
			time.Since(t0).Round(time.Millisecond), report.ID)
		ran++
	}
	fmt.Fprintf(&sb, "---\n\n%d experiments at scale %q in %s.\n", ran, *scale,
		time.Since(start).Round(time.Second))

	fmt.Println()
	fmt.Print(sb.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

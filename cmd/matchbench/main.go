// Command matchbench regenerates the paper's evaluation tables and figures
// on the synthetic suite. Each experiment id matches a table or figure of
// the paper; see DESIGN.md for the index and EXPERIMENTS.md for recorded
// results.
//
// Usage:
//
//	matchbench -exp all                      # run everything
//	matchbench -exp fig3,fig7 -scale medium  # selected experiments
//	matchbench -exp tab2 -csv                # CSV instead of ASCII
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"graftmatch/internal/exps"
)

// experiments maps experiment ids to drivers returning one or more tables.
var experiments = map[string]func(exps.Config) []*exps.Table{
	"tab1": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.TableI(c)} },
	"tab2": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.TableII(c)} },
	"fig1": exps.Fig1,
	"fig3": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Fig3(c)} },
	"fig4": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Fig4(c)} },
	"fig5": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Fig5(c)} },
	"fig6": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Fig6(c)} },
	"fig7": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Fig7(c)} },
	"fig8": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Fig8(c)} },
	"psi":  func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Psi(c)} },

	// Ablations and extensions beyond the paper's figures.
	"abl-alpha": func(c exps.Config) []*exps.Table { return []*exps.Table{exps.AblationAlpha(c)} },
	"abl-init":  func(c exps.Config) []*exps.Table { return []*exps.Table{exps.AblationInit(c)} },
	"dist":      func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Distributed(c)} },
	"fig7xl":    func(c exps.Config) []*exps.Table { return []*exps.Table{exps.Fig7XL(c)} },
}

// order fixes the presentation sequence of -exp all.
var order = []string{"tab1", "tab2", "fig1", "fig3", "psi", "fig4", "fig5", "fig6", "fig7", "fig8",
	"abl-alpha", "abl-init", "dist", "fig7xl"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "matchbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("matchbench", flag.ContinueOnError)
	expList := fs.String("exp", "all", "comma-separated experiment ids: "+strings.Join(order, ",")+" or all")
	scaleName := fs.String("scale", "small", "suite scale: small, medium, large")
	threads := fs.Int("threads", 0, "full-machine thread count P (0 = GOMAXPROCS)")
	reps := fs.Int("reps", 3, "repetitions per timed cell (paper: 10)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned ASCII")
	jsonOut := fs.Bool("json", false, "emit a JSON object stream instead of ASCII")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := exps.Config{Threads: *threads, Reps: *reps}
	switch strings.ToLower(*scaleName) {
	case "small":
		cfg.Scale = exps.Small
	case "medium":
		cfg.Scale = exps.Medium
	case "large":
		cfg.Scale = exps.Large
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	ids := order
	if *expList != "all" {
		ids = strings.Split(*expList, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		driver, ok := experiments[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(order, ", "))
		}
		for _, tab := range driver(cfg) {
			var err error
			switch {
			case *jsonOut:
				err = tab.WriteJSON(w)
			case *csv:
				err = tab.WriteCSV(w)
			default:
				err = tab.WriteASCII(w)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

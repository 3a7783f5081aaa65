// Command matchtrace visualizes the BFS frontier evolution of the MS-BFS
// family on any input graph — the Fig. 8 view of the paper, as ASCII bars
// per phase and level. It makes the effect of tree grafting directly
// visible: grafted phases start from their largest frontier and only
// shrink, while plain MS-BFS phases rebuild and re-grow the same forests.
//
// Usage:
//
//	matchtrace [-algo msbfsgraft|msbfs|diropt] [-init greedy|ks|none]
//	           [-threads N] [-phases K] [-width W] (file.mtx | -suite NAME)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graftmatch"
	"graftmatch/internal/exps"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "matchtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("matchtrace", flag.ContinueOnError)
	algoName := fs.String("algo", "msbfsgraft", "algorithm: msbfsgraft, msbfs, diropt")
	initName := fs.String("init", "greedy", "initializer: ks, greedy, pgreedy, pks, none")
	threads := fs.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	maxPhases := fs.Int("phases", 8, "show at most this many phases")
	width := fs.Int("width", 60, "bar width of the largest frontier")
	suiteName := fs.String("suite", "", "use a synthetic suite instance instead of a file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *graftmatch.Graph
	switch {
	case *suiteName != "":
		inst, ok := exps.ByName(exps.Small, *suiteName)
		if !ok {
			return fmt.Errorf("unknown suite instance %q (try: %s)", *suiteName, strings.Join(exps.Names(exps.Small), ", "))
		}
		g = inst.Graph
	case fs.NArg() == 1:
		var err error
		g, err = graftmatch.ReadGraphFile(fs.Arg(0))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("expected a graph file or -suite NAME")
	}

	algo, err := graftmatch.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	switch algo {
	case graftmatch.MSBFSGraft, graftmatch.MSBFS, graftmatch.MSBFSDirOpt:
	default:
		return fmt.Errorf("algorithm %q: matchtrace supports the MS-BFS family (msbfsgraft, msbfs, diropt)", *algoName)
	}
	initz, err := graftmatch.ParseInitializer(*initName)
	if err != nil {
		return err
	}

	res, err := graftmatch.Match(g, graftmatch.Options{
		Algorithm:      algo,
		Initializer:    initz,
		Threads:        *threads,
		TraceFrontiers: true,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s on %d+%d vertices, %d edges: |M| = %d in %d phases (%d grafted, %d rebuilt)\n",
		res.Stats.Algorithm, g.NX(), g.NY(), g.NumEdges(),
		res.Cardinality, res.Stats.Phases, res.Stats.Grafts, res.Stats.Rebuilds)

	var peak int64 = 1
	for _, phase := range res.Stats.FrontierTrace {
		for _, sz := range phase {
			if sz > peak {
				peak = sz
			}
		}
	}
	for pi, phase := range res.Stats.FrontierTrace {
		if pi >= *maxPhases {
			fmt.Fprintf(w, "... %d more phases\n", len(res.Stats.FrontierTrace)-pi)
			break
		}
		fmt.Fprintf(w, "phase %d:\n", pi+1)
		for li, sz := range phase {
			bar := int(sz * int64(*width) / peak)
			fmt.Fprintf(w, "  L%-2d %8d %s\n", li, sz, strings.Repeat("#", bar))
		}
	}
	return nil
}

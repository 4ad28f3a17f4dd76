// Command experiments regenerates the paper's evaluation: every table and
// figure of Section VI, plus the ablation studies listed in DESIGN.md,
// and it is the only writer of the committed BENCH_*.json artifacts.
//
// Usage:
//
//	experiments -exp all                 # everything; writes every BENCH artifact
//	experiments -exp fig6 -paper         # Figure 6 at the paper's sizes (cost-only)
//	experiments -exp tableII -sizes 126,254,510
//	experiments -exp lookahead -out ''   # print the study, write nothing
//
// Figure 6 runs in cost-only mode (the analytic device model at the
// paper's matrix sizes); Figure 2 and Tables II/III execute real
// arithmetic. Each artifact experiment runs at the canonical grid fixed
// in internal/bench, so -nb and -sizes shape only the text reports. See
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/sim"
)

func main() {
	names := []string{"all|tableI|fig2|fig6|tableII|tableIII|ablation|breakdown|multierror|trace|timeline"}
	for _, a := range bench.Artifacts {
		names = append(names, a.Name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, "|"))
	nb := flag.Int("nb", 32, "block size of the text reports")
	sizesFlag := flag.String("sizes", "", "comma-separated positive matrix sizes of the text reports (overrides defaults)")
	paper := flag.Bool("paper", false, "use the paper's full size grid for fig6 (cost-only, still fast)")
	seed := flag.Uint64("seed", 158, "workload seed")
	traceOut := flag.String("traceout", "", "write a Chrome trace JSON of the timeline experiment to this file")
	outDir := flag.String("out", ".", "directory the BENCH_*.json artifacts are written to (empty writes nothing)")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	params := sim.K40c()
	out := os.Stdout

	fig6Sizes, realSizes := sizes, sizes
	if sizes == nil {
		fig6Sizes, realSizes = []int{1022, 2046, 3070, 4030}, bench.RealSizes
		if *paper {
			fig6Sizes = bench.PaperSizes
		}
	}

	reports := []struct {
		name string
		run  func()
	}{
		{"tableI", func() { bench.TableI(out, params) }},
		{"fig2", func() { bench.Fig2(out, *seed) }},
		{"fig6", func() { bench.Fig6(out, fig6Sizes, *nb, params) }},
		{"tables", func() { bench.Tables23(out, realSizes, *nb) }},
		{"ablation", func() { bench.Ablations(out, fig6Sizes[len(fig6Sizes)-1], params) }},
		{"breakdown", func() { bench.Breakdown(out, fig6Sizes[len(fig6Sizes)-1], *nb, params) }},
		{"multierror", func() { bench.MultiError(out, 158, *nb, 10, *seed) }},
		{"trace", func() { bench.Trace(out, 158, *nb) }},
		{"timeline", func() { bench.Timeline(out, 512, *nb, params, *traceOut) }},
	}
	name := *exp
	if name == "tableII" || name == "tableIII" {
		name = "tables"
	}
	ran := false
	for _, r := range reports {
		if name == "all" || name == r.name {
			r.run()
			fmt.Fprintln(out)
			ran = true
		}
	}
	for _, a := range bench.Artifacts {
		if name != "all" && name != a.Name {
			continue
		}
		v, err := a.Run(out)
		if err == nil && *outDir != "" {
			if err = bench.WriteArtifact(*outDir, a.File, v); err == nil {
				fmt.Fprintf(out, "wrote %s\n", filepath.Join(*outDir, a.File))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.Name, err)
			os.Exit(2)
		}
		fmt.Fprintln(out)
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// parseSizes parses the -sizes list; nil means the defaults. Every entry
// must be a positive integer.
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %v", f, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("bad size %d: matrix sizes must be positive", v)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

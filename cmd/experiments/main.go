// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated Internet. Each experiment prints the paper's
// reported result next to the measured one so the shape comparison in
// EXPERIMENTS.md can be audited from a single run.
//
// Usage:
//
//	experiments -exp all            # everything (default)
//	experiments -exp fig3           # one experiment: table2 fig1 table3
//	                                # table4 fig2 fig3 fig4 fig5 fig6
//	                                # sankey ablation
//	experiments -seed 1 -full       # larger (slower) configurations
package main

import (
	"flag"
	"fmt"
	"image"
	"os"
	"path/filepath"
	"strings"

	"fenrir/internal/core"
	"fenrir/internal/report"
)

type experiment struct {
	name  string
	title string
	run   func(cfg runConfig) error
}

type runConfig struct {
	seed   uint64
	full   bool
	outdir string
}

var experiments = []experiment{
	{"table2", "Table 2: datasets and scenario inventory", runTable2},
	{"fig1", "Figure 1: G-Root catchment sizes over ten days", runFig1},
	{"table3", "Table 3: transition matrices at the STR drain", runTable3},
	{"table4", "Table 4: validation against operator ground truth", runTable4},
	{"fig2", "Figure 2: enterprise catchments at hop 3 (USC)", runFig2},
	{"fig3", "Figure 3: B-Root modes over five years", runFig3},
	{"fig4", "Figure 4: p90 latency per B-Root catchment", runFig4},
	{"fig5", "Figure 5: Google front-end similarity heatmap", runFig5},
	{"fig6", "Figure 6: Wikipedia catchments and the codfw drain", runFig6},
	{"sankey", "Figures 7/8: enterprise flow topology before/after", runSankey},
	{"ablation", "Ablations: unknown handling, linkage, interpolation, weighting", runAblation},
	{"controlplane", "Extension: Fenrir on a BGP route-collector feed + AS-hegemony", runControlPlane},
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment to run (all, or one of: "+names()+")")
		seed   = flag.Uint64("seed", 42, "root seed for the simulated Internet")
		full   = flag.Bool("full", false, "run at larger scale (slower, closer to paper cadence)")
		outdir = flag.String("outdir", "", "also write PNG figures into this directory")
	)
	flag.Parse()

	cfg := runConfig{seed: *seed, full: *full, outdir: *outdir}
	if cfg.outdir != "" {
		if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cannot create %s: %v\n", cfg.outdir, err)
			os.Exit(1)
		}
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.name, e.title)
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: all %s\n", *exp, names())
		os.Exit(2)
	}
}

func names() string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.name)
	}
	return strings.Join(out, " ")
}

// paperVsMeasured prints an aligned comparison row.
func paperVsMeasured(what, paper, measured string) {
	fmt.Printf("  %-42s paper: %-22s measured: %s\n", what, paper, measured)
}

// saveHeatmapPNG writes a gray-scale heatmap figure when -outdir is set.
func saveHeatmapPNG(cfg runConfig, name string, m *core.SimMatrix) {
	if cfg.outdir == "" {
		return
	}
	cell := 600/m.N + 1
	savePNG(cfg, name, report.HeatmapImage(m, cell))
}

// saveStackPNG writes a stack-plot figure when -outdir is set.
func saveStackPNG(cfg runConfig, name string, s *core.Series) {
	if cfg.outdir == "" {
		return
	}
	savePNG(cfg, name, report.StackImage(s, 800, 300))
}

func savePNG(cfg runConfig, name string, img image.Image) {
	path := filepath.Join(cfg.outdir, name+".png")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := report.WritePNG(f, img); err != nil {
		fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
		return
	}
	fmt.Printf("  wrote %s\n", path)
}

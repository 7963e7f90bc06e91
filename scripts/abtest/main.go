// Command abtest pairs perfbench runs of a base commit against the
// working tree. It extracts the base ref with `git archive` into a
// temporary directory and, for each seed, runs
//
//	bash perfbench/run.sh --workload W --seed S --seconds N --trace 0
//
// once in that tree and once in the working tree, alternating which side
// runs first; N is BENCHMARK.json's run_seconds. For each end-to-end
// metric BENCHMARK.json lists, it prints each side's median, quartiles
// and runs, the per-pair change/base ratios, how many pairs the change
// won, whether the claim rule holds (at least nine tenths of the pairs
// won, and a median gap larger than the base's interquartile range), and
// whether the change's median stays within the metric's no-regression
// bound. It also prints each side's failed and attempted operations.
//
// Run it from the repository root:
//
//	go run ./scripts/abtest -base HEAD -workload serve-deep \
//	    -seeds 1,2,3,4,5,6,90001,90002,90003,90004
//
// Each side builds into its own tree's .bench_build/; the base tree is
// removed when the tool exits.
package main

import (
	"archive/tar"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// result is the last line perfbench prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// benchmark is the part of BENCHMARK.json abtest reads.
type benchmark struct {
	RunSeconds int      `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
}

func main() {
	base := flag.String("base", "", "git ref of the base commit (required)")
	workload := flag.String("workload", "", "perfbench workload (required)")
	seedList := flag.String("seeds", "1,2,3,4,5,6,7,8,9,10", "comma-separated seeds, one pair per seed")
	flag.Parse()
	if *base == "" || *workload == "" {
		fmt.Fprintln(os.Stderr, "usage: abtest -base REF -workload NAME [-seeds 1,2,...]")
		os.Exit(2)
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abtest:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *base, *workload, seeds); err != nil {
		fmt.Fprintln(os.Stderr, "abtest:", err)
		os.Exit(1)
	}
}

func parseSeeds(list string) ([]uint64, error) {
	var seeds []uint64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

func run(ctx context.Context, ref, workload string, seeds []uint64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bench benchmark
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	commit, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", ref).Output()
	if err != nil {
		return fmt.Errorf("git rev-parse %s: %w", ref, err)
	}
	baseDir, err := os.MkdirTemp("", "abtest-base-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)
	if err := extract(ctx, ref, baseDir); err != nil {
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	work, err := os.Getwd()
	if err != nil {
		return err
	}
	fmt.Printf("abtest: %s, %d pairs (seeds %s), %d s runs; base %s (%s) vs the working tree\n\n",
		workload, len(seeds), strings.Trim(fmt.Sprint(seeds), "[]"), bench.RunSeconds, strings.TrimSpace(string(commit)), ref)

	var sides [2]struct {
		name               string
		dir                string
		runs               []*result // nil where the run failed
		attempted, failed  int
		incorrect, crashed int
	}
	sides[0].name, sides[0].dir = "base", baseDir
	sides[1].name, sides[1].dir = "change", work
	for i, seed := range seeds {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, k := range order {
			s := &sides[k]
			res, err := perfbench(ctx, s.dir, workload, seed, bench.RunSeconds)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil {
				s.crashed++
				fmt.Fprintf(os.Stderr, "abtest: pair %d seed %d %s: %v\n", i+1, seed, s.name, err)
			} else {
				s.attempted += res.Attempted
				s.failed += res.Failed
				if !res.Correct {
					s.incorrect++
				}
				fmt.Fprintf(os.Stderr, "abtest: pair %d seed %d %s: correct=%v failed %d/%d%s\n",
					i+1, seed, s.name, res.Correct, res.Failed, res.Attempted, metricLine(bench.EndToEnd, res))
			}
			s.runs = append(s.runs, res)
		}
	}

	for _, m := range bench.EndToEnd {
		c := comparison{Metric: m}
		for i := range seeds {
			b, okB := value(sides[0].runs[i], m.Name)
			ch, okC := value(sides[1].runs[i], m.Name)
			if okB && okC {
				c.Base, c.Change = append(c.Base, b), append(c.Change, ch)
			}
		}
		if len(c.Base) == 0 {
			fmt.Printf("%s: no pair produced it\n\n", m.Name)
			continue
		}
		fmt.Println(c.report())
	}
	for _, s := range sides {
		fmt.Printf("%-6s operations failed/attempted %d/%d; runs incorrect %d, runs that produced no result %d, of %d\n",
			s.name, s.failed, s.attempted, s.incorrect, s.crashed, len(seeds))
	}
	return nil
}

// perfbench runs one untraced perfbench run in dir and parses its last
// line of output.
func perfbench(ctx context.Context, dir, workload string, seed uint64, seconds int) (*result, error) {
	cmd := exec.CommandContext(ctx, "bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, lastLine(stderr.String()))
	}
	var res result
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

func value(res *result, name string) (float64, bool) {
	if res == nil {
		return 0, false
	}
	m, ok := res.Metrics[name]
	return m.Value, ok
}

func metricLine(ms []metric, res *result) string {
	out := ""
	for _, m := range ms {
		if v, ok := value(res, m.Name); ok {
			out += fmt.Sprintf("  %s %s", m.Name, num(v))
		}
	}
	return out
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// extract writes the tree of ref into dir through `git archive`.
func extract(ctx context.Context, ref, dir string) error {
	cmd := exec.CommandContext(ctx, "git", "archive", "--format=tar", ref)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	untarErr := untar(out, dir)
	if untarErr != nil {
		io.Copy(io.Discard, out) //nolint:errcheck // drained only so git can exit
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return untarErr
}

func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := writeFile(path, tr, os.FileMode(h.Mode).Perm()); err != nil {
				return err
			}
		case tar.TypeSymlink:
			if err := os.Symlink(h.Linkname, path); err != nil {
				return err
			}
		}
	}
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

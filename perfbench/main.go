// Command perfbench is fenrir's benchmark: four workloads over the two
// paths users wait on, the batch pipeline (Analyze, then Report) and the
// serving daemon. See README.md in this directory for the workloads, the
// metrics and why each was chosen. Run it through run.sh, which builds the
// daemon and this program from source first:
//
//	bash perfbench/run.sh --workload batch-long --seed 7 --seconds 15 --trace 0
//
// With --trace 0 the last line of standard output is the end-to-end
// result; with --trace 1 it is the per-layer result of a separate traced
// run, and the spans are written as Chrome trace-event JSON under -state.
package main

import (
	"debug/buildinfo"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// batchShape sizes a batch workload's series.
type batchShape struct{ epochs, networks, sites int }

// serveShape sizes a serve workload's tenants and its open-loop load.
type serveShape struct {
	tenants, networks, sites int
	window                   int     // 0 = unbounded history
	prefill                  bool    // tenants start from a full window restored from snapshots
	ingestRate, queryRate    float64 // requests per second
	badShare                 float64 // share of duplicate or out-of-order epochs
}

type workload struct {
	name  string
	batch *batchShape
	serve *serveShape
}

var workloads = []workload{
	{name: "batch-long", batch: &batchShape{epochs: 1024, networks: 256, sites: 5}},
	{name: "batch-wide", batch: &batchShape{epochs: 512, networks: 512, sites: 128}},
	{name: "serve-fleet", serve: &serveShape{tenants: 1024, networks: 16, sites: 5, ingestRate: 1000, badShare: 0.01}},
	{name: "serve-deep", serve: &serveShape{tenants: 4, networks: 256, sites: 5, window: 1024, prefill: true, ingestRate: 40, queryRate: 8}},
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's verdicts, metrics and details.
type run struct {
	w         workload
	seed      uint64
	seconds   time.Duration
	daemon    string
	state     string
	attempted int
	failed    int
	metrics   map[string]metric
	detail    map[string]any
}

// check counts one attempted operation or output check.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

func (r *run) put(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func main() {
	wname := flag.String("workload", "", "workload: batch-long batch-wide serve-fleet serve-deep")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	daemon := flag.String("daemon", "", "path of the release-built fenrir binary")
	state := flag.String("state", "", "scratch directory for snapshots and traces")
	flag.Parse()
	if err := mainErr(*wname, *seed, *seconds, *trace, *daemon, *state); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(wname string, seed uint64, seconds, trace int, daemon, state string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == wname {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", wname)
	}
	if seconds < 1 || (trace != 0 && trace != 1) || daemon == "" || state == "" {
		return fmt.Errorf("need --seconds >= 1, --trace 0|1, -daemon and -state")
	}
	// A number only counts from a release build.
	if raceEnabled {
		return fmt.Errorf("refusing to measure: this benchmark was built with -race")
	}
	bi, err := buildinfo.ReadFile(daemon)
	if err != nil {
		return fmt.Errorf("read daemon build info: %w", err)
	}
	commit := "unknown"
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return fmt.Errorf("refusing to measure: %s was built with -race", daemon)
		}
		if s.Key == "vcs.revision" {
			commit = s.Value
		}
	}
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	r := &run{
		w: *w, seed: seed, seconds: time.Duration(seconds) * time.Second,
		daemon: daemon, state: state,
		metrics: map[string]metric{}, detail: map[string]any{},
	}
	switch {
	case trace == 1:
		err = runTraced(r)
	case w.batch != nil:
		err = runBatch(r)
	default:
		err = runServe(r)
	}
	if err != nil {
		return err
	}
	prov := map[string]any{
		"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "daemon_go_version": bi.GoVersion,
		"git_commit": commit,
	}
	if w.serve != nil {
		prov["daemon_flags"] = strings.Join(daemonFlags(w.serve, "<state>"), " ")
	}
	line, err := json.Marshal(map[string]any{"provenance": prov, "detail": r.detail})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"fenrir"
	"fenrir/internal/clean"
	"fenrir/internal/core"
)

// analysisOptions is the paper's configuration with a serial similarity
// stage: on a 2-core host the parallel tile pool turns the scheduler into
// most of the run-to-run spread.
func analysisOptions() fenrir.AnalysisOptions {
	o := fenrir.DefaultAnalysisOptions()
	o.Parallelism = 1
	return o
}

// digest fingerprints an analysis: every Φ cell, each row's mode, and
// every change epoch. Two runs of the same input must agree exactly.
func digest(m *core.SimMatrix, modes *core.ModesResult, changes []core.ChangeEvent) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			mix(math.Float64bits(m.At(i, j)))
		}
	}
	rowMode := make([]int, m.N)
	for _, md := range modes.Modes {
		for _, row := range md.Rows {
			rowMode[row] = md.ID + 1
		}
	}
	for _, id := range rowMode {
		mix(uint64(id))
	}
	for _, c := range changes {
		mix(uint64(c.At))
	}
	return h
}

// batchOp is one measured op: Analyze, then render the report.
func batchOp(s *core.Series) (*fenrir.Analysis, string) {
	a := fenrir.Analyze(s, analysisOptions())
	return a, a.Report()
}

// runBatch is the untraced end-to-end run of a batch workload: one
// caller in a closed loop.
func runBatch(r *run) error {
	// The collector runs between ops and set-ups, not during them: an
	// op's latency is then the pipeline's own work, its CPU includes the
	// collection of the garbage it made, and the peak RSS is the live set
	// plus what one op allocates rather than wherever a concurrent cycle
	// happened to end.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in := genBatch(r.seed, *r.w.batch)
	var (
		s      *core.Series
		ref    uint64
		setups []time.Duration
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		s = in.series()
		a, _ := batchOp(s)
		setups = append(setups, time.Since(t0))
		d := digest(a.Matrix, a.Modes, a.Changes)
		if i == 0 {
			ref = d
		}
		r.check(d == ref, "setup %d digest %x != %x", i, d, ref)
	}

	var lats, cpus []time.Duration
	start := time.Now()
	for time.Since(start) < r.seconds {
		c0 := selfCPU()
		t0 := time.Now()
		a, _ := batchOp(s)
		lats = append(lats, time.Since(t0))
		cpu := selfCPU() - c0
		d := digest(a.Matrix, a.Modes, a.Changes)
		r.check(d == ref, "op %d digest %x != %x", len(lats), d, ref)
		c0 = selfCPU()
		runtime.GC()
		cpus = append(cpus, cpu+selfCPU()-c0)
	}
	wall := time.Since(start)

	r.put("setup_s", "s", median(setups).Seconds())
	r.put("latency_p50_ms", "ms", ms(median(lats)))
	r.put("cpu_ms_per_op", "ms", ms(median(cpus)))
	r.put("rss_mb", "MB", selfMaxRSSMB())
	r.detail["ops"] = len(lats)
	r.detail["ops_per_s"] = float64(len(lats)) / wall.Seconds()
	r.detail["latency_p90_ms"] = ms(quantile(lats, 0.9))
	r.detail["latency_p90_samples_beyond"] = beyond(len(lats), 0.9)
	r.detail["error_rate"] = float64(r.failed) / float64(r.attempted)
	return nil
}

// batchLayers are the per-layer samples of a traced batch profile.
type batchLayers struct {
	clean, sim, cluster, detect, report []time.Duration
	traced, untraced                    []time.Duration
	simAllocs, simBytes, clAllocs       []float64
	events                              int
}

// maxProfileOps bounds a batch profile on a tiny series (a serve-fleet
// tenant's history), whose ops take microseconds, so its spans stay few.
const maxProfileOps = 1000

// profileBatch alternates untraced ops through the facade with traced
// ops that call each layer in Analyze's order, with its options, until
// budget runs out. Every op's digest must match the first one's.
func profileBatch(r *run, tr *tracer, s *core.Series, budget time.Duration) *batchLayers {
	opts := analysisOptions()
	l := &batchLayers{}
	var ref uint64
	var ms0, ms1 runtime.MemStats
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // as in runBatch
	start := time.Now()
	for k := 0; k < 2 || (k < maxProfileOps && time.Since(start) < budget); k++ {
		var (
			m       *core.SimMatrix
			modes   *core.ModesResult
			changes []core.ChangeEvent
		)
		runtime.GC()
		if k%2 == 0 {
			t0 := time.Now()
			a, _ := batchOp(s)
			l.untraced = append(l.untraced, time.Since(t0))
			m, modes, changes = a.Matrix, a.Modes, a.Changes
		} else {
			o := tr.op("batch.op", true)
			cs := s
			l.clean = append(l.clean, o.step("clean.interpolate", func() {
				cs = clean.Interpolate(s, clean.InterpolateOptions{MaxReach: opts.InterpolateReach})
				_ = clean.Coverage(cs)
			}))
			runtime.ReadMemStats(&ms0)
			l.sim = append(l.sim, o.step("core.similarity", func() {
				m = core.SimilarityMatrixParallel(cs, opts.Weights, opts.Unknowns,
					core.MatrixOptions{Kernel: opts.Kernel, Parallelism: opts.Parallelism})
			}))
			runtime.ReadMemStats(&ms1)
			l.simAllocs = append(l.simAllocs, float64(ms1.Mallocs-ms0.Mallocs))
			l.simBytes = append(l.simBytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			l.cluster = append(l.cluster, o.step("core.cluster", func() {
				modes = core.DiscoverModes(m, opts.Clustering)
			}))
			runtime.ReadMemStats(&ms0)
			l.clAllocs = append(l.clAllocs, float64(ms0.Mallocs-ms1.Mallocs))
			l.detect = append(l.detect, o.step("core.detect", func() {
				changes = core.DetectChanges(cs, opts.Weights, opts.Detection)
			}))
			l.report = append(l.report, o.step("report.render", func() {
				a := &fenrir.Analysis{Series: cs, Matrix: m, Modes: modes, Changes: changes}
				_ = a.Report()
			}))
			l.traced = append(l.traced, o.end())
			l.events = len(changes)
		}
		d := digest(m, modes, changes)
		if k == 0 {
			ref = d
		}
		r.check(d == ref, "traced batch op %d digest %x != %x", k, d, ref)
	}
	return l
}

func (l *batchLayers) put(r *run) {
	r.put("clean.interpolate_ms", "ms", ms(median(l.clean)))
	r.put("core.similarity_ms", "ms", ms(median(l.sim)))
	r.put("core.similarity_allocs", "count", medianF(l.simAllocs))
	r.put("core.similarity_alloc_mb", "MB", medianF(l.simBytes))
	r.put("core.cluster_ms", "ms", ms(median(l.cluster)))
	r.put("core.cluster_allocs", "count", medianF(l.clAllocs))
	r.put("core.detect_ms", "ms", ms(median(l.detect)))
	r.put("core.detect_events", "count", float64(l.events))
	r.put("report.render_ms", "ms", ms(median(l.report)))
}

// coverage is Σ layer medians over the traced op median, and overhead
// the traced op median over the untraced one, minus one.
func (l *batchLayers) coverage() (cov, over float64) {
	sum := median(l.clean) + median(l.sim) + median(l.cluster) + median(l.detect) + median(l.report)
	return float64(sum) / float64(median(l.traced)), float64(median(l.traced))/float64(median(l.untraced)) - 1
}

package fenrir

// Benchmark harness: one testing.B per table and figure of the paper,
// each regenerating its artefact end-to-end (topology, BGP solve,
// measurement sweeps, and the Fenrir analysis), plus ablation benches for
// the design choices called out in DESIGN.md §5 and N-scaling sweeps for
// the pipeline's dominant cost. Run:
//
//	go test -bench=. -benchmem
//
// The figure/table benches use reduced scales so a full -bench=. pass
// stays in CI territory; cmd/experiments is the place for full runs.

import (
	"fmt"
	"testing"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

// --- Table and figure benchmarks -----------------------------------------

func benchBRootConfig(seed uint64) BRootConfig {
	cfg := DefaultBRootConfig(seed)
	cfg.EpochDays = 21
	cfg.StubsPerRegion = 8
	cfg.HitlistStride = 4
	cfg.LatencyEvery = 8
	cfg.AtlasVPs = 40
	return cfg
}

// BenchmarkTable2Datasets builds every scenario world once — the cost of
// standing up the five datasets of Table 2.
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunGRoot(benchGRootConfig(1)); err != nil {
			b.Fatal(err)
		}
		if _, err := RunBRoot(benchBRootConfig(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGRootConfig(seed uint64) GRootConfig {
	cfg := DefaultGRootConfig(seed)
	cfg.EpochMinutes = 60
	cfg.Days = 6
	cfg.VPs = 80
	cfg.StubsPerRegion = 8
	return cfg
}

// BenchmarkFig1GRootCatchments regenerates Figure 1's catchment series.
func BenchmarkFig1GRootCatchments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunGRoot(benchGRootConfig(2))
		if err != nil {
			b.Fatal(err)
		}
		if res.Series.Len() == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkTable3TransitionMatrices regenerates the drain transitions.
func BenchmarkTable3TransitionMatrices(b *testing.B) {
	res, err := RunGRoot(benchGRootConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	d := res.Events["drain-1"]
	va, vb := res.Series.At(d-1), res.Series.At(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Transition(va, vb, nil)
	}
}

// BenchmarkTable4Validation regenerates the ground-truth study.
func BenchmarkTable4Validation(b *testing.B) {
	cfg := DefaultValidationConfig(3)
	cfg.Epochs = 700
	cfg.VPs = 60
	cfg.StubsPerRegion = 8
	for i := 0; i < b.N; i++ {
		res, err := RunValidation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Validation.TP == 0 {
			b.Fatal("no true positives")
		}
	}
}

// BenchmarkFig2Enterprise regenerates the USC hop-3 study.
func BenchmarkFig2Enterprise(b *testing.B) {
	cfg := DefaultUSCConfig(4)
	cfg.EpochDays = 21
	cfg.StubsPerRegion = 8
	cfg.HitlistStride = 4
	for i := 0; i < b.N; i++ {
		if _, err := RunUSC(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3BRootModes regenerates the five-year mode discovery.
func BenchmarkFig3BRootModes(b *testing.B) {
	cfg := benchBRootConfig(5)
	cfg.LatencyEvery = 0
	for i := 0; i < b.N; i++ {
		res, err := RunBRoot(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Modes.Modes) == 0 {
			b.Fatal("no modes")
		}
	}
}

// BenchmarkFig4Latency regenerates the per-site latency series.
func BenchmarkFig4Latency(b *testing.B) {
	cfg := benchBRootConfig(5)
	cfg.LatencyEvery = 4
	for i := 0; i < b.N; i++ {
		res, err := RunBRoot(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Latency.Sites) == 0 {
			b.Fatal("no latency series")
		}
	}
}

// BenchmarkFig5Google regenerates the Google heatmap.
func BenchmarkFig5Google(b *testing.B) {
	cfg := DefaultGoogleConfig(6)
	cfg.Days2024 = 14
	cfg.Prefixes = 300
	cfg.FleetSize = 100
	cfg.StubsPerRegion = 8
	for i := 0; i < b.N; i++ {
		if _, err := RunGoogle(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Wikipedia regenerates the Wikipedia study.
func BenchmarkFig6Wikipedia(b *testing.B) {
	cfg := DefaultWikipediaConfig(7)
	cfg.Days = 21
	cfg.Prefixes = 300
	cfg.StubsPerRegion = 8
	for i := 0; i < b.N; i++ {
		if _, err := RunWikipedia(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig78Sankey regenerates the before/after flow topologies.
func BenchmarkFig78Sankey(b *testing.B) {
	cfg := DefaultUSCConfig(8)
	cfg.EpochDays = 28
	cfg.StubsPerRegion = 8
	cfg.HitlistStride = 4
	for i := 0; i < b.N; i++ {
		res, err := RunUSC(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.FlowsBefore) == 0 || len(res.FlowsAfter) == 0 {
			b.Fatal("missing flows")
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ----------------------------------

// syntheticSeries builds a series with nEpochs vectors over nNets networks
// with the given unknown fraction, for pipeline micro-benches.
func syntheticSeries(nEpochs, nNets int, unknownFrac float64, seed uint64) *Series {
	return syntheticSeriesSites(nEpochs, nNets, 5, unknownFrac, seed)
}

// syntheticSeriesSites is syntheticSeries over an alphabet of nSites
// sites.
func syntheticSeriesSites(nEpochs, nNets, nSites int, unknownFrac float64, seed uint64) *Series {
	r := rng.New(seed)
	ids := make([]string, nNets)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%05d", i)
	}
	space := NewSpace(ids)
	sites := make([]string, nSites)
	for i := range sites {
		sites[i] = fmt.Sprintf("S%03d", i)
	}
	var vs []*Vector
	for e := 0; e < nEpochs; e++ {
		v := space.NewVector(timeline.Epoch(e))
		base := sites[(e/10)%len(sites)] // mode shifts every 10 epochs
		for i := 0; i < nNets; i++ {
			if r.Bool(unknownFrac) {
				continue
			}
			if r.Bool(0.1) {
				v.Set(i, sites[r.Intn(len(sites))])
			} else {
				v.Set(i, base)
			}
		}
		vs = append(vs, v)
	}
	sched := NewSchedule(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour, nEpochs)
	return NewSeries(space, sched, vs)
}

// BenchmarkAblationUnknownHandling compares the two Φ definitions.
func BenchmarkAblationUnknownHandling(b *testing.B) {
	s := syntheticSeries(2, 5000, 0.45, 1)
	a, v := s.Vectors[0], s.Vectors[1]
	for _, mode := range []UnknownMode{PessimisticUnknown, KnownOnly} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Gower(a, v, nil, mode)
			}
		})
	}
}

// BenchmarkAblationLinkage compares HAC linkages on a mode-structured
// matrix.
func BenchmarkAblationLinkage(b *testing.B) {
	s := syntheticSeries(120, 400, 0.2, 2)
	m := core.SimilarityMatrix(s, nil, core.PessimisticUnknown)
	for _, l := range []core.Linkage{core.SingleLinkage, core.AverageLinkage, core.CompleteLinkage} {
		b.Run(l.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.HAC(m, l)
			}
		})
	}
}

// BenchmarkAblationInterpolation sweeps the reach limit.
func BenchmarkAblationInterpolation(b *testing.B) {
	s := syntheticSeries(60, 1000, 0.3, 3)
	an := DefaultAnalysisOptions()
	for _, reach := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("reach-%d", reach), func(b *testing.B) {
			opts := an
			opts.InterpolateReach = reach
			for i := 0; i < b.N; i++ {
				Analyze(s, opts)
			}
		})
	}
}

// BenchmarkAblationWeighting compares uniform against count weights.
func BenchmarkAblationWeighting(b *testing.B) {
	s := syntheticSeries(2, 5000, 0.1, 4)
	a, v := s.Vectors[0], s.Vectors[1]
	counts := map[string]float64{"n00001": 256, "n00002": 64}
	w := CountWeights(s.Space, counts, 1)
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Gower(a, v, nil, core.PessimisticUnknown)
		}
	})
	b.Run("count-weighted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Gower(a, v, w, core.PessimisticUnknown)
		}
	})
}

// BenchmarkAblationThreshold sweeps the adaptive-threshold step size.
func BenchmarkAblationThreshold(b *testing.B) {
	s := syntheticSeries(120, 400, 0.2, 5)
	m := core.SimilarityMatrix(s, nil, core.PessimisticUnknown)
	for _, step := range []float64{0.005, 0.01, 0.05} {
		b.Run(fmt.Sprintf("step-%.3f", step), func(b *testing.B) {
			opts := core.DefaultAdaptiveOptions()
			opts.Step = step
			for i := 0; i < b.N; i++ {
				core.ClusterAdaptive(m, opts)
			}
		})
	}
}

// --- Scaling sweeps -------------------------------------------------------

// BenchmarkSimilarityMatrixScaling shows the quadratic-epochs × linear-
// networks cost of the pipeline's dominant stage.
func BenchmarkSimilarityMatrixScaling(b *testing.B) {
	for _, nets := range []int{500, 2000, 8000} {
		s := syntheticSeries(60, nets, 0.3, 6)
		b.Run(fmt.Sprintf("epochs-60-nets-%d", nets), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SimilarityMatrix(s, nil, core.PessimisticUnknown)
			}
		})
	}
	for _, epochs := range []int{30, 120, 360} {
		s := syntheticSeries(epochs, 1000, 0.3, 7)
		b.Run(fmt.Sprintf("epochs-%d-nets-1000", epochs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SimilarityMatrix(s, nil, core.PessimisticUnknown)
			}
		})
	}
}

// BenchmarkSimilarityMatrix sweeps the packed Φ engine across series
// lengths, serial (P=1) against the auto-sized worker pool with
// balanced-triangle tiles (P=auto); every P produces the bit-identical
// matrix. The T=512/N=512/S=128 row is the large-alphabet shape (7
// bit-sliced planes per word), the one the per-site engine used to hand
// to a scalar loop. scripts/benchguard.sh gates regressions on the
// T=1024/P=1 and large-alphabet rows.
func BenchmarkSimilarityMatrix(b *testing.B) {
	run := func(name string, s *Series, p int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SimilarityMatrixParallel(s, nil, core.PessimisticUnknown,
					core.MatrixOptions{Parallelism: p})
			}
		})
	}
	for _, T := range []int{64, 256, 1024} {
		s := syntheticSeries(T, 256, 0.3, 9)
		run(fmt.Sprintf("T=%d/P=1", T), s, 1)
		run(fmt.Sprintf("T=%d/P=auto", T), s, 0)
	}
	run("T=512/N=512/S=128/P=1", syntheticSeriesSites(512, 512, 128, 0.3, 9), 1)
}

// BenchmarkMonitorAppendHot measures the streaming ingest path at fixed
// depth: a Window=1024 monitor prefilled to its window, so every append
// evicts the oldest row, replays the detector over the retained window,
// packs the new vector, and computes its Φ row against 1023 packed rows.
// Appended vectors cycle through 200 more epochs of the same model
// (cloned with a fresh epoch, which the per-op numbers include), so mode
// changes keep firing at the series' own rate however large b.N grows.
func BenchmarkMonitorAppendHot(b *testing.B) {
	const W, nets, cycle = 1024, 256, 200
	s := syntheticSeries(W+cycle, nets, 0.3, 12)
	mon := core.NewMonitorOpts(s.Space, NewSchedule(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour, 1<<30),
		core.MonitorOptions{Mode: core.PessimisticUnknown, Detect: core.DefaultDetectOptions(), Window: W})
	for _, v := range s.Vectors[:W] {
		if _, _, err := mon.Append(v); err != nil {
			b.Fatal(err)
		}
	}
	next := s.Vectors[W:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := next[i%cycle].Clone()
		v.T = timeline.Epoch(W + i)
		if _, _, err := mon.Append(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterAdaptiveIncremental measures the single-pass
// threshold sweep (sorted merges + one persistent union-find) that
// replaced the 101× from-scratch Cut rebuild inside ClusterAdaptive.
func BenchmarkClusterAdaptiveIncremental(b *testing.B) {
	s := syntheticSeries(240, 400, 0.2, 10)
	m := core.SimilarityMatrix(s, nil, core.PessimisticUnknown)
	opts := core.DefaultAdaptiveOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ClusterAdaptive(m, opts)
	}
}

// BenchmarkAnalyzePipeline measures the full facade pipeline end-to-end.
func BenchmarkAnalyzePipeline(b *testing.B) {
	s := syntheticSeries(120, 2000, 0.3, 8)
	opts := DefaultAnalysisOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(s, opts)
	}
}

package scenario

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"fenrir/internal/core"
	"fenrir/internal/faults"
	"fenrir/internal/obs"
)

// The determinism tests compare two runs of the same code, so a change
// that shifts a measurement engine's dataplane call sequence (and with it
// every later seeded draw) passes them unnoticed. These digests pin each
// scenario's series and fault counts across commits. Update a constant
// only for a change meant to alter scenario output, and say so in the
// change's notes.

// goldenCase is one scenario at its determinism-test scale. run applies
// set to the config's Run, then runs the scenario.
type goldenCase struct {
	name           string
	run            func(set func(*Run)) (Outcome, error)
	plain, faulted uint64
}

var goldenCases = []goldenCase{
	{"broot", func(set func(*Run)) (Outcome, error) {
		cfg := smallBRoot()
		cfg.LatencyEvery = 0
		set(&cfg.Run)
		r, err := RunBRoot(cfg)
		if err != nil {
			return Outcome{}, err
		}
		return r.Outcome, nil
	}, 0xdce78f360728f98a, 0x2719d50d5cf63886},
	{"groot", func(set func(*Run)) (Outcome, error) {
		cfg := DefaultGRootConfig(9)
		cfg.Days = 3
		cfg.EpochMinutes = 60
		cfg.VPs = 60
		cfg.StubsPerRegion = 8
		set(&cfg.Run)
		r, err := RunGRoot(cfg)
		if err != nil {
			return Outcome{}, err
		}
		return r.Outcome, nil
	}, 0x6796fe8be903c40c, 0x908032660106cb70},
	{"usc", func(set func(*Run)) (Outcome, error) {
		cfg := DefaultUSCConfig(9)
		cfg.EpochDays = 28
		cfg.StubsPerRegion = 8
		cfg.HitlistStride = 4
		set(&cfg.Run)
		r, err := RunUSC(cfg)
		if err != nil {
			return Outcome{}, err
		}
		return r.Outcome, nil
	}, 0xcdccb712f4289b71, 0x72cee92fc7bd9060},
	{"google", func(set func(*Run)) (Outcome, error) {
		cfg := DefaultGoogleConfig(4)
		cfg.Days2024 = 21
		cfg.Prefixes = 400
		cfg.FleetSize = 120
		cfg.StubsPerRegion = 10
		set(&cfg.Run)
		r, err := RunGoogle(cfg)
		if err != nil {
			return Outcome{}, err
		}
		return r.Outcome, nil
	}, 0x164fb04734bbdced, 0xd1b110d7a63981c2},
	{"wikipedia", func(set func(*Run)) (Outcome, error) {
		cfg := DefaultWikipediaConfig(9)
		cfg.Days = 14
		cfg.Prefixes = 300
		cfg.StubsPerRegion = 8
		set(&cfg.Run)
		r, err := RunWikipedia(cfg)
		if err != nil {
			return Outcome{}, err
		}
		return r.Outcome, nil
	}, 0x65ffa651fc7f4d3a, 0x5c069240457a3622},
	{"validation", func(set func(*Run)) (Outcome, error) {
		cfg := DefaultValidationConfig(9)
		cfg.Epochs = 700
		cfg.VPs = 80
		cfg.StubsPerRegion = 8
		set(&cfg.Run)
		r, err := RunValidation(cfg)
		if err != nil {
			return Outcome{}, err
		}
		return r.Outcome, nil
	}, 0x0b429e8f4da6ccf7, 0x82ed7af2577bd48a},
}

func TestScenarioGoldenDigests(t *testing.T) {
	light, ok := faults.ByName("light")
	if !ok {
		t.Fatal("no light profile")
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			for _, v := range []struct {
				label string
				prof  faults.Profile
				seed  uint64
				want  uint64
			}{
				{"plain", faults.Profile{}, 0, c.plain},
				{"light/7", light, 7, c.faulted},
			} {
				out, err := c.run(func(r *Run) { r.Faults, r.FaultSeed = v.prof, v.seed })
				if err != nil {
					t.Fatalf("%s: %v", v.label, err)
				}
				if got := goldenDigest(out.Series, out.Faults); got != v.want {
					t.Errorf("%s: digest %#016x, want %#016x", v.label, got, v.want)
				}
			}
		})
	}
}

// TestScenarioRunContract holds every runner to the shared run contract:
// a plain run carries no fault or quarantine report; a faulted run
// carries both, except that USC, with no known site set, has no
// quarantine, and counts each quarantined cell once, so its registry's
// invalid-site counter, the quarantine report and the fault report
// agree; neither the worker pool nor an instrumentation registry
// moves the series or a bit of the matrix, while the registry records
// the stages every study shares, detection among them; and Report
// renders each analysis as the concatenating oracle does.
func TestScenarioRunContract(t *testing.T) {
	light, ok := faults.ByName("light")
	if !ok {
		t.Fatal("no light profile")
	}
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.run(func(r *Run) { r.Parallelism = 1 })
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			if plain.Faults != nil || plain.Quarantined != nil {
				t.Errorf("plain run has reports: faults %v, quarantine %v", plain.Faults, plain.Quarantined)
			}

			freg := obs.NewRegistry()
			faulted, err := c.run(func(r *Run) { r.Faults, r.FaultSeed, r.Obs = light, 7, freg })
			if err != nil {
				t.Fatalf("light: %v", err)
			}
			if faulted.Faults == nil {
				t.Fatal("light run has no fault report")
			}
			if wantQ := c.name != "usc"; (faulted.Quarantined != nil) != wantQ {
				t.Errorf("light run quarantine %v, want present=%v", faulted.Quarantined, wantQ)
			}
			total := 0
			if faulted.Quarantined != nil {
				total = faulted.Quarantined.Total
			}
			counter := freg.Read().Counters[`fenrir_quarantined_total{reason="invalid-site"}`]
			if counter != int64(total) || faulted.Faults.Quarantined["invalid-site"] != total {
				t.Errorf("invalid-site quarantine: counter %d, report total %d, fault report %d; want all equal",
					counter, total, faulted.Faults.Quarantined["invalid-site"])
			}

			reg := obs.NewRegistry()
			par, err := c.run(func(r *Run) { r.Parallelism, r.Obs = 2, reg })
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if a, b := goldenDigest(plain.Series, nil), goldenDigest(par.Series, nil); a != b {
				t.Errorf("series digest %#016x at parallelism 1, %#016x at 2 with a registry", a, b)
			}
			if plain.Matrix.N != par.Matrix.N {
				t.Fatalf("matrix rows %d vs %d", plain.Matrix.N, par.Matrix.N)
			}
			for i := 0; i < plain.Matrix.N; i++ {
				for j := 0; j < i; j++ {
					if a, b := plain.Matrix.At(i, j), par.Matrix.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("matrix cell (%d,%d): %v at parallelism 1, %v at 2", i, j, a, b)
					}
				}
			}
			for _, o := range []Outcome{plain, faulted} {
				if got, want := o.Report(), reportConcat(&o.Analysis); got != want {
					t.Errorf("Report differs from the concatenated report:\n got: %q\nwant: %q", got, want)
				}
			}
			for _, r := range []*obs.Registry{reg, freg} {
				stages := map[string]bool{}
				for _, s := range r.StageSummary() {
					stages[s.Name] = true
				}
				for _, name := range []string{"generate", "observe", "similarity", "cluster", "detect"} {
					if !stages[name] {
						t.Errorf("stage summary lacks %q: %v", name, r.StageSummary())
					}
				}
			}
		})
	}
}

// goldenDigest hashes every series cell — epoch, network, site label —
// and the fault report's counts. It hashes integers and labels only, so
// it never depends on float formatting.
func goldenDigest(s *core.Series, rep *faults.Report) uint64 {
	h := fnv.New64a()
	putInt(h, int64(s.Len()))
	putInt(h, int64(s.Space.NumNetworks()))
	for _, v := range s.Vectors {
		putInt(h, int64(v.T))
		for n := 0; n < s.Space.NumNetworks(); n++ {
			putStr(h, s.Space.Network(n))
			if site, ok := v.Site(n); ok {
				putStr(h, site)
			} else {
				putInt(h, -1)
			}
		}
	}
	if rep == nil {
		putInt(h, -1)
		return h.Sum64()
	}
	putStr(h, rep.Profile)
	putInt(h, int64(rep.Seed))
	for _, m := range []map[string]int{rep.Injected, rep.Retries, rep.Quarantined} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		putInt(h, int64(len(keys)))
		for _, k := range keys {
			putStr(h, k)
			putInt(h, int64(m[k]))
		}
	}
	return h.Sum64()
}

func putInt(h hash.Hash64, x int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(x))
	h.Write(b[:])
}

func putStr(h hash.Hash64, s string) {
	putInt(h, int64(len(s)))
	h.Write([]byte(s))
}

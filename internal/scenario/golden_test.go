package scenario

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"fenrir/internal/core"
	"fenrir/internal/faults"
)

// The determinism tests compare two runs of the same code, so a change
// that shifts a measurement engine's dataplane call sequence (and with it
// every later seeded draw) passes them unnoticed. These digests pin each
// scenario's series and fault counts across commits. Update a constant
// only for a change meant to alter scenario output, and say so in the
// change's notes.

func TestScenarioGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		// run is the scenario at its determinism-test scale.
		run            func(faults.Profile, uint64) (*core.Series, *faults.Report, error)
		plain, faulted uint64
	}{
		{"broot", func(p faults.Profile, fs uint64) (*core.Series, *faults.Report, error) {
			cfg := smallBRoot()
			cfg.LatencyEvery = 0
			cfg.Faults, cfg.FaultSeed = p, fs
			r, err := RunBRoot(cfg)
			if err != nil {
				return nil, nil, err
			}
			return r.Series, r.Faults, nil
		}, 0xdce78f360728f98a, 0x2719d50d5cf63886},
		{"groot", func(p faults.Profile, fs uint64) (*core.Series, *faults.Report, error) {
			cfg := DefaultGRootConfig(9)
			cfg.Days = 3
			cfg.EpochMinutes = 60
			cfg.VPs = 60
			cfg.StubsPerRegion = 8
			cfg.Faults, cfg.FaultSeed = p, fs
			r, err := RunGRoot(cfg)
			if err != nil {
				return nil, nil, err
			}
			return r.Series, r.Faults, nil
		}, 0x6796fe8be903c40c, 0x908032660106cb70},
		{"usc", func(p faults.Profile, fs uint64) (*core.Series, *faults.Report, error) {
			cfg := DefaultUSCConfig(9)
			cfg.EpochDays = 28
			cfg.StubsPerRegion = 8
			cfg.HitlistStride = 4
			cfg.Faults, cfg.FaultSeed = p, fs
			r, err := RunUSC(cfg)
			if err != nil {
				return nil, nil, err
			}
			return r.Series, r.Faults, nil
		}, 0xcdccb712f4289b71, 0x72cee92fc7bd9060},
		{"google", func(p faults.Profile, fs uint64) (*core.Series, *faults.Report, error) {
			cfg := DefaultGoogleConfig(4)
			cfg.Days2024 = 21
			cfg.Prefixes = 400
			cfg.FleetSize = 120
			cfg.StubsPerRegion = 10
			cfg.Faults, cfg.FaultSeed = p, fs
			r, err := RunGoogle(cfg)
			if err != nil {
				return nil, nil, err
			}
			return r.Series, r.Faults, nil
		}, 0x164fb04734bbdced, 0xd1b110d7a63981c2},
		{"wikipedia", func(p faults.Profile, fs uint64) (*core.Series, *faults.Report, error) {
			cfg := DefaultWikipediaConfig(9)
			cfg.Days = 14
			cfg.Prefixes = 300
			cfg.StubsPerRegion = 8
			cfg.Faults, cfg.FaultSeed = p, fs
			r, err := RunWikipedia(cfg)
			if err != nil {
				return nil, nil, err
			}
			return r.Series, r.Faults, nil
		}, 0x65ffa651fc7f4d3a, 0x5c069240457a3622},
		{"validation", func(p faults.Profile, fs uint64) (*core.Series, *faults.Report, error) {
			cfg := DefaultValidationConfig(9)
			cfg.Epochs = 700
			cfg.VPs = 80
			cfg.StubsPerRegion = 8
			cfg.Faults, cfg.FaultSeed = p, fs
			r, err := RunValidation(cfg)
			if err != nil {
				return nil, nil, err
			}
			return r.Series, r.Faults, nil
		}, 0x0b429e8f4da6ccf7, 0x82ed7af2577bd48a},
	}
	light, ok := faults.ByName("light")
	if !ok {
		t.Fatal("no light profile")
	}
	for _, c := range cases {
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
				s, rep, err := c.run(v.prof, v.seed)
				if err != nil {
					t.Fatalf("%s: %v", v.label, err)
				}
				if got := goldenDigest(s, rep); got != v.want {
					t.Errorf("%s: digest %#016x, want %#016x", v.label, got, v.want)
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

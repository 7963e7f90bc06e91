package fenrir

import (
	"fenrir/internal/scenario"
)

// The scenario runners reproduce the paper's studies end-to-end on the
// simulated Internet; cmd/experiments drives all of them to regenerate
// every table and figure. The four re-exported here are the ones the
// examples embed (e.g. as regression benchmarks for a deployment of the
// analysis pipeline).
type (
	// BRootConfig/BRootResult reproduce Figures 3 and 4 (five years of
	// anycast catchments and per-site latency).
	BRootConfig = scenario.BRootConfig
	BRootResult = scenario.BRootResult
	// USCConfig/USCResult reproduce Figure 2 and the appendix Sankeys.
	USCConfig = scenario.USCConfig
	USCResult = scenario.USCResult
	// GoogleConfig/GoogleResult reproduce Figure 5.
	GoogleConfig = scenario.GoogleConfig
	GoogleResult = scenario.GoogleResult
	// WikipediaConfig/WikipediaResult reproduce Figure 6.
	WikipediaConfig = scenario.WikipediaConfig
	WikipediaResult = scenario.WikipediaResult
)

// Scenario runners and their default configurations.
var (
	RunBRoot               = scenario.RunBRoot
	DefaultBRootConfig     = scenario.DefaultBRootConfig
	RunUSC                 = scenario.RunUSC
	DefaultUSCConfig       = scenario.DefaultUSCConfig
	RunGoogle              = scenario.RunGoogle
	DefaultGoogleConfig    = scenario.DefaultGoogleConfig
	RunWikipedia           = scenario.RunWikipedia
	DefaultWikipediaConfig = scenario.DefaultWikipediaConfig
)

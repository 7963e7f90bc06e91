package report

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/latency"
	"fenrir/internal/rng"
	"fenrir/internal/timeline"
)

func twoModeSeries() *core.Series {
	s := core.NewSpace([]string{"a", "b", "c", "d"})
	var vs []*core.Vector
	for e := 0; e < 6; e++ {
		v := s.NewVector(timeline.Epoch(e))
		site := "X"
		if e >= 3 {
			site = "Y"
		}
		for i := 0; i < 4; i++ {
			v.Set(i, site)
		}
		vs = append(vs, v)
	}
	sched := timeline.NewSchedule(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), 24*time.Hour, 6)
	return core.NewSeries(s, sched, vs, nil)
}

func TestHeatmapStructure(t *testing.T) {
	ser := twoModeSeries()
	m := core.SimilarityMatrix(ser, nil, core.PessimisticUnknown)
	h := Heatmap(m, 6)
	lines := strings.Split(strings.TrimRight(h, "\n"), "\n")
	if len(lines) != 7 { // header + 6 rows
		t.Fatalf("heatmap lines = %d", len(lines))
	}
	grid := lines[1:]
	// Diagonal cells are identical vectors: darkest glyph '@'.
	for i := 0; i < 6; i++ {
		if grid[i][i] != '@' {
			t.Errorf("diagonal cell (%d,%d) = %q, want '@'", i, i, grid[i][i])
		}
	}
	// Cross-mode corner is fully dissimilar: lightest glyph ' '.
	if grid[0][5] != ' ' {
		t.Errorf("corner cell = %q, want ' '", grid[0][5])
	}
}

func TestHeatmapDownsamples(t *testing.T) {
	m := core.NewSimMatrix(100)
	h := Heatmap(m, 10)
	lines := strings.Split(strings.TrimRight(h, "\n"), "\n")
	if len(lines) != 11 {
		t.Fatalf("downsampled heatmap lines = %d", len(lines))
	}
	if len(lines[1]) != 10 {
		t.Fatalf("row width = %d", len(lines[1]))
	}
}

// TestModesSummaryOfLiveModes is the regression test for CrossPhi on a
// live result: LiveModes returned a nil Matrix, so summarizing a monitor
// with two or more modes dereferenced nil. The live summary must equal
// the batch one over the same history. The monitor is serve-deep shaped
// (256 networks, 5 sites, 4 recurring modes, 30% unknowns) and fed past
// its window W.
func TestModesSummaryOfLiveModes(t *testing.T) {
	const networks, numModes = 256, 4
	names := make([]string, networks)
	for i := range names {
		names[i] = fmt.Sprintf("net-%03d", i)
	}
	space := core.NewSpace(names)
	sites := []string{"A", "B", "C", "D", "E"}
	for _, W := range []int{64, 1024} {
		r := rng.New(uint64(W))
		modes := make([][]string, numModes)
		for k := range modes {
			modes[k] = make([]string, networks)
			for i := range modes[k] {
				modes[k][i] = sites[r.Intn(len(sites))]
			}
		}
		sched := timeline.NewSchedule(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), time.Hour, 1<<20)
		mon := core.NewMonitorOpts(space, sched, core.MonitorOptions{
			Mode: core.PessimisticUnknown, Detect: core.DefaultDetectOptions(), Window: W,
		})
		for e := 0; e < W+W/2+10; e++ {
			v := space.NewVector(timeline.Epoch(e))
			for i, site := range modes[(e/10)%numModes] {
				if !r.Bool(0.3) {
					v.Set(i, site)
				}
			}
			if _, _, err := mon.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		live := mon.LiveModes()
		if len(live.Modes) < 2 {
			t.Fatalf("W=%d: %d modes, want at least 2 for a CrossPhi line", W, len(live.Modes))
		}
		got := ModesSummary(live)
		want := ModesSummary(core.DiscoverModes(mon.Matrix(), core.DefaultAdaptiveOptions()))
		if got != want {
			t.Fatalf("W=%d: live summary\n%s\nbatch summary\n%s", W, got, want)
		}
	}
}

func TestStackPlot(t *testing.T) {
	out := StackPlot(twoModeSeries())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "epoch,X,Y" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,4,0" || lines[6] != "5,0,4" {
		t.Fatalf("rows: %q ... %q", lines[1], lines[6])
	}
}

func TestTransitionTable(t *testing.T) {
	s := core.NewSpace([]string{"a", "b"})
	va, vb := s.NewVector(0), s.NewVector(1)
	va.Set(0, "STR")
	va.Set(1, "NAP")
	vb.Set(0, "NAP")
	vb.Set(1, "NAP")
	tm := core.Transition(va, vb, nil)
	out := TransitionTable(tm, "drain")
	if !strings.Contains(out, "drain") || !strings.Contains(out, "NAP") || !strings.Contains(out, "STR") {
		t.Fatalf("table missing labels:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + 2 site rows
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
}

func TestModesSummary(t *testing.T) {
	ser := twoModeSeries()
	m := core.SimilarityMatrix(ser, nil, core.PessimisticUnknown)
	res := core.DiscoverModes(m, core.DefaultAdaptiveOptions())
	out := ModesSummary(res)
	if !strings.Contains(out, "mode (i)") || !strings.Contains(out, "mode (ii)") {
		t.Fatalf("summary missing modes:\n%s", out)
	}
	if !strings.Contains(out, "Phi(Mi, Mii)") {
		t.Fatalf("summary missing cross Phi:\n%s", out)
	}
}

func TestRoman(t *testing.T) {
	cases := map[int]string{1: "i", 2: "ii", 4: "iv", 6: "vi", 9: "ix", 14: "xiv"}
	for n, want := range cases {
		if got := roman(n); got != want {
			t.Errorf("roman(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSankey(t *testing.T) {
	flows := map[string]int{
		"AS52>AS226>AS2152":   80,
		"AS52>AS2152>AS11537": 20,
	}
	out := Sankey(flows, "before")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.Contains(lines[0], "before") || !strings.Contains(lines[0], "100") {
		t.Fatalf("header = %q", lines[0])
	}
	// Largest flow first.
	if !strings.Contains(lines[1], "AS52>AS226>AS2152") || !strings.Contains(lines[1], "80.00%") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestLatencyCSV(t *testing.T) {
	s := latency.NewSiteSeries()
	s.Append(0, map[string]float64{"LAX": 20})
	s.Append(1, map[string]float64{"LAX": 25, "SCL": 12})
	out := LatencyCSV(s)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "epoch,LAX,SCL" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,20.00," {
		t.Fatalf("row 0 = %q (NaN must be empty)", lines[1])
	}
	if lines[2] != "1,25.00,12.00" {
		t.Fatalf("row 1 = %q", lines[2])
	}
}

func TestMarkdownTable(t *testing.T) {
	out := MarkdownTable([]string{"a", "b"}, [][]string{{"1", "2"}})
	want := "| a | b |\n| --- | --- |\n| 1 | 2 |\n"
	if out != want {
		t.Fatalf("table = %q", out)
	}
}

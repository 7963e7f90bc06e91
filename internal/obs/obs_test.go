package obs

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The nil-registry no-op contract is what lets library code instrument
// unconditionally; every handle type must survive a nil receiver.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(1)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %v", got)
	}
	r.Histogram("h").Observe(1)
	r.Histogram("h").ObserveSince(time.Now())
	if r.Histogram("h").Count() != 0 || r.Histogram("h").Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	sp := r.StartSpan("stage")
	sp.SetItems(9)
	sp.AddItems(1)
	sp.SetWorkers(4)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if v := r.Read(); r.StageSummary() != nil || v.Counters != nil || v.Gauges != nil || v.Histograms != nil {
		t.Fatal("nil registry returned data")
	}
	r.WritePrometheus(io.Discard)
	var m Manifest
	m.FillFromRegistry(r)
	var s *RuntimeSampler
	if g, h := s.Stop(); g != 0 || h != 0 {
		t.Fatal("nil sampler returned peaks")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fenrir_test_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("fenrir_test_total") != c {
		t.Fatal("counter handle not stable across lookups")
	}
	g := r.Gauge("fenrir_test_gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
	h := r.Histogram("fenrir_test_seconds")
	h.Observe(1e-6)
	h.Observe(0.5)
	h.Observe(1e12) // beyond the last bound: counted, bucketed as +Inf only
	if h.Count() != 3 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if got := h.Sum(); got < 0.5 {
		t.Fatalf("histogram sum = %v", got)
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSpansAndStageSummary(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("similarity")
	sp.SetItems(100)
	sp.SetWorkers(4)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration = %v", d)
	}
	sp.End() // double End must not duplicate the record
	sp2 := r.StartSpan("similarity")
	sp2.SetItems(50)
	sp2.SetWorkers(2)
	sp2.End()
	r.StartSpan("cluster").End()

	sum := r.StageSummary()
	if len(sum) != 2 {
		t.Fatalf("summary stages = %d, want 2", len(sum))
	}
	var runs uint64
	for _, st := range sum {
		runs += r.Histogram(`fenrir_stage_duration_seconds{stage="` + st.Name + `"}`).Count()
	}
	if runs != 3 {
		t.Fatalf("stage runs = %d, want 3", runs)
	}
	if sum[0].Name != "similarity" || sum[0].Items != 150 || sum[0].Workers != 4 {
		t.Fatalf("similarity rollup = %+v", sum[0])
	}
	if sum[1].Name != "cluster" {
		t.Fatalf("stage order = %+v", sum)
	}
	if got := r.Histogram(`fenrir_stage_duration_seconds{stage="similarity"}`).Count(); got != 2 {
		t.Fatalf("stage duration count = %d, want 2", got)
	}
}

// A long-lived registry's stage log is bounded by its number of stage
// names: every End folds into its name's rollup, summing seconds and
// items in End order.
func TestStageSummaryBoundedByNames(t *testing.T) {
	r := NewRegistry()
	names := []string{"generate", "observe", "similarity", "cluster"}
	var seconds [4]float64
	var items [4]int64
	for i := 0; i < 10000; i++ {
		sp := r.StartSpan(names[i%4])
		sp.SetItems(int64(i))
		seconds[i%4] += sp.End().Seconds()
		items[i%4] += int64(i)
	}
	sum := r.StageSummary()
	if len(sum) != len(names) {
		t.Fatalf("summary stages = %d, want %d", len(sum), len(names))
	}
	for j, st := range sum {
		if st.Name != names[j] || st.Seconds != seconds[j] || st.Items != items[j] {
			t.Fatalf("stage %d = %+v, want %s with %v s and %d items", j, st, names[j], seconds[j], items[j])
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`fenrir_kernel_total{kernel="pessimistic-uniform"}`).Add(3)
	r.Gauge("fenrir_workers").Set(8)
	r.Histogram(`fenrir_tile_seconds{stage="similarity"}`).Observe(0.01)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE fenrir_kernel_total counter",
		`fenrir_kernel_total{kernel="pessimistic-uniform"} 3`,
		"# TYPE fenrir_workers gauge",
		"fenrir_workers 8",
		"# TYPE fenrir_tile_seconds histogram",
		`fenrir_tile_seconds_bucket{stage="similarity",le="+Inf"} 1`,
		`fenrir_tile_seconds_count{stage="similarity"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and end at the total count.
	if !strings.Contains(out, `le="0.016777216"`) {
		t.Fatalf("expected log-scale bucket boundary in:\n%s", out)
	}
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("fenrir_up").Inc()
	srv, err := NewServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if !strings.Contains(get("/metrics"), "fenrir_up 1") {
		t.Fatal("/metrics missing counter")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("/debug/pprof/ index missing")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("observe")
	sp.SetItems(42)
	sp.End()
	r.Counter("fenrir_monitor_appends_total").Add(42)
	r.Gauge("fenrir_cluster_threshold").Set(0.12)

	m := &Manifest{
		Scenario:    "wikipedia",
		Seed:        42,
		Started:     time.Now().UTC(),
		WallSeconds: 1.5,
		MatrixRows:  42,
		Networks:    1200,
		Modes:       3,
	}
	m.FillFromRegistry(r)
	if m.Stage("observe") == nil || m.Stage("observe").Items != 42 {
		t.Fatalf("stage rollup missing: %+v", m.Stages)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != "wikipedia" || got.Seed != 42 || got.Modes != 3 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Counters["fenrir_monitor_appends_total"] != 42 {
		t.Fatalf("counters lost: %+v", got.Counters)
	}
	if got.StageSeconds() <= 0 {
		t.Fatal("stage seconds not recorded")
	}
}

func TestRuntimeSampler(t *testing.T) {
	s := StartRuntimeSampler(time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-stop
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	g, heap := s.Stop()
	if g < 16 {
		t.Fatalf("peak goroutines = %d, want >= 16", g)
	}
	if heap == 0 {
		t.Fatal("peak heap not sampled")
	}
	// Stop is idempotent.
	if g2, _ := s.Stop(); g2 != g {
		t.Fatalf("second Stop changed peaks: %d vs %d", g2, g)
	}
}

// TestEvictionCounters pins the bounded-ring eviction accounting: both
// counters are always present (zero included — presence is the proof
// nothing was dropped), the flight ring counts overwrites once it
// wraps, the trace ring likewise, and both surface through
// WritePrometheus, Read, and the manifest.
func TestEvictionCounters(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	for _, name := range []string{"fenrir_trace_spans_evicted_total 0", "fenrir_flight_events_evicted_total 0"} {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("fresh registry missing %q:\n%s", name, buf.String())
		}
	}
	if r.TraceEvicted() != 0 || r.FlightEvicted() != 0 {
		t.Fatal("fresh registry reports evictions")
	}

	// Wrap the flight ring: flightCap+7 events must evict exactly 7.
	for i := 0; i < flightCap+7; i++ {
		r.Logger().Info("event", "i", i)
	}
	if got := r.FlightEvicted(); got != 7 {
		t.Fatalf("flight evictions = %d, want 7", got)
	}

	// Wrap the trace ring: traceCap+3 finished spans must evict 3.
	root := r.BeginTrace("run")
	for i := 0; i < traceCap+2; i++ {
		root.Child("s").End()
	}
	root.End()
	if got := r.TraceEvicted(); got != 3 {
		t.Fatalf("trace evictions = %d, want 3", got)
	}

	readCounters := r.Read().Counters
	if readCounters["fenrir_flight_events_evicted_total"] != 7 ||
		readCounters["fenrir_trace_spans_evicted_total"] != 3 {
		t.Fatalf("Read counters wrong: %+v", readCounters)
	}
	var m Manifest
	m.FillFromRegistry(r)
	if m.Counters["fenrir_flight_events_evicted_total"] != 7 ||
		m.Counters["fenrir_trace_spans_evicted_total"] != 3 {
		t.Fatalf("manifest counters wrong: %+v", m.Counters)
	}
	buf.Reset()
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "fenrir_flight_events_evicted_total 7") {
		t.Fatalf("prometheus output missing eviction count:\n%s", buf.String())
	}

	// Nil-registry accessors are no-ops, per the obs contract.
	var nilReg *Registry
	if nilReg.TraceEvicted() != 0 || nilReg.FlightEvicted() != 0 {
		t.Fatal("nil registry reports evictions")
	}
}

// TestReadRuntimeHealth exercises the /status runtime block: the
// sampled values must be live (goroutines, heap) and the GC-pause
// quantile non-negative even when no GC has run yet.
func TestReadRuntimeHealth(t *testing.T) {
	h := ReadRuntimeHealth()
	if h.Goroutines < 1 {
		t.Fatalf("goroutines = %d", h.Goroutines)
	}
	if h.HeapBytes == 0 {
		t.Fatal("heap bytes = 0")
	}
	if h.GCPauseP99Secs < 0 {
		t.Fatalf("gc pause p99 = %v", h.GCPauseP99Secs)
	}
}

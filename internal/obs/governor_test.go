package obs

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusDeterministic is the exposition-order regression
// test: two back-to-back scrapes of the same registry are byte-identical
// and families appear sorted by metric name, with series inside a family
// sorted by their full labeled name.
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	// Registration order is deliberately unsorted.
	r.Gauge("zeta_depth").Set(3)
	r.Counter(`alpha_total{tenant="b"}`).Add(2)
	r.Histogram("mid_seconds").Observe(0.5)
	r.Counter(`alpha_total{tenant="a"}`).Add(1)
	r.Gauge("beta_seconds").Set(1.5)
	r.Counter("alpha_total").Inc()

	var a, b strings.Builder
	r.WritePrometheus(&a)
	r.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Fatalf("two scrapes differ:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}

	var families []string
	var series []string
	for _, line := range strings.Split(a.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
		if line != "" && !strings.HasPrefix(line, "#") {
			series = append(series, strings.Fields(line)[0])
		}
	}
	if !sort.StringsAreSorted(families) {
		t.Fatalf("families not sorted: %v", families)
	}
	ai := indexOf(series, `alpha_total{tenant="a"}`)
	bi := indexOf(series, `alpha_total{tenant="b"}`)
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("labeled series not sorted within family: a at %d, b at %d in %v", ai, bi, series)
	}
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}

// TestFlightSnapshotConsistency hammers the flight recorder with
// concurrent writers while readers take snapshots, asserting every
// snapshot is internally consistent: seqs strictly monotone with no
// gaps, and — once the ring has wrapped — the oldest retained event is
// exactly evicted+1. Reading Events and Evicted as two separate calls
// cannot make that guarantee; Snapshot's single lock acquisition can.
// Run under -race (make check does).
func TestFlightSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	log := r.Logger()
	const writers, perWriter = 4, 700 // 2800 events through a 1024 ring
	var wg sync.WaitGroup
	stop := make(chan struct{})

	readErr := make(chan string, 1)
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				events, evicted := r.flight.Snapshot(0)
				for j := 1; j < len(events); j++ {
					if events[j].Seq != events[j-1].Seq+1 {
						select {
						case readErr <- fmt.Sprintf("seq gap: %d then %d", events[j-1].Seq, events[j].Seq):
						default:
						}
						return
					}
				}
				if len(events) == flightCap && events[0].Seq != evicted+1 {
					select {
					case readErr <- fmt.Sprintf("full ring oldest seq %d != evicted+1 = %d", events[0].Seq, evicted+1):
					default:
					}
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				log.Info("event", "writer", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	select {
	case msg := <-readErr:
		t.Fatal(msg)
	default:
	}

	events, evicted := r.flight.Snapshot(0)
	if want := uint64(writers*perWriter - flightCap); evicted != want {
		t.Fatalf("evicted = %d, want %d", evicted, want)
	}
	if len(events) != flightCap || events[0].Seq != evicted+1 {
		t.Fatalf("final snapshot: %d events, oldest seq %d, want %d events starting at %d",
			len(events), events[0].Seq, flightCap, evicted+1)
	}
}

// TestHistogramQuantileEdges covers the runtime-health quantile
// estimator's edge cases: nil, empty, single-bucket, and the +Inf tail
// clamp (the serve SLO path has these tests; this is the
// runtime/metrics path).
func TestHistogramQuantileEdges(t *testing.T) {
	if got := histogramQuantile(nil, 0.99); got != 0 {
		t.Fatalf("nil histogram: %v, want 0", got)
	}
	empty := &metrics.Float64Histogram{
		Counts:  []uint64{0, 0},
		Buckets: []float64{0, 1, 2},
	}
	if got := histogramQuantile(empty, 0.5); got != 0 {
		t.Fatalf("empty histogram: %v, want 0", got)
	}
	single := &metrics.Float64Histogram{
		Counts:  []uint64{7},
		Buckets: []float64{0.25, 0.5},
	}
	if got := histogramQuantile(single, 0.99); got != 0.5 {
		t.Fatalf("single bucket: %v, want its upper bound 0.5", got)
	}
	infTail := &metrics.Float64Histogram{
		Counts:  []uint64{1, 9},
		Buckets: []float64{0, 1, math.Inf(+1)},
	}
	if got := histogramQuantile(infTail, 0.99); got != 1 {
		t.Fatalf("+Inf tail: %v, want clamp to last finite edge 1", got)
	}
	if got := histogramQuantile(infTail, 0.05); got != 1 {
		t.Fatalf("low quantile: %v, want first bucket's upper bound 1", got)
	}
}

// TestSeriesCapGovernor is the cardinality acceptance test at registry
// scale: 10k tenants against a 1k cap. The family stays at cap+1 series
// in /metrics (cap admitted plus __other__), every increment is
// preserved (overflow aggregates instead of dropping), shard-labeled
// series are never governed, and the dropped-series counter records the
// overflow.
func TestSeriesCapGovernor(t *testing.T) {
	r := NewRegistry()
	r.SetSeriesCap(1000)
	const tenants = 10_000
	family := "fenrir_serve_tenant_ingest_total"
	for i := 0; i < tenants; i++ {
		r.Counter(fmt.Sprintf("%s{tenant=%q}", family, fmt.Sprintf("t%05d", i))).Inc()
	}
	for k := 0; k < 4; k++ {
		r.Counter(fmt.Sprintf(`%s{shard="%d"}`, family, k)).Add(2500)
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	var tenantSeries, shardSeries int
	var tenantSum int64
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		name := strings.Fields(line)[0]
		if strings.Contains(name, `tenant="`) {
			tenantSeries++
			var v int64
			fmt.Sscanf(strings.Fields(line)[1], "%d", &v)
			tenantSum += v
		}
		if strings.Contains(name, `shard="`) {
			shardSeries++
		}
	}
	if tenantSeries != 1001 {
		t.Fatalf("%d tenant series exposed, want cap+1 = 1001", tenantSeries)
	}
	if tenantSum != tenants {
		t.Fatalf("tenant series sum to %d, want every increment preserved (%d)", tenantSum, tenants)
	}
	if shardSeries != 4 {
		t.Fatalf("%d shard series, want all 4 ungoverned", shardSeries)
	}
	if got := r.Counter(fmt.Sprintf("%s{tenant=%q}", family, OtherTenant)).Value(); got != tenants-1000 {
		t.Fatalf("__other__ holds %d, want the %d overflow increments", got, tenants-1000)
	}
	if got := r.Counter(DroppedSeriesMetric).Value(); got <= 0 {
		t.Fatal("dropped-series counter never moved")
	}

	// An admitted tenant keeps resolving to its own series after the cap
	// is hit; a brand-new one keeps collapsing.
	r.Counter(fmt.Sprintf("%s{tenant=%q}", family, "t00000")).Inc()
	if got := r.Counter(fmt.Sprintf("%s{tenant=%q}", family, "t00000")).Value(); got != 2 {
		t.Fatalf("admitted tenant counter = %d, want 2", got)
	}
}

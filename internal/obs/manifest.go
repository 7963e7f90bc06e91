package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Manifest is the structured record of one pipeline run: what ran, how
// it was configured, where the wall time went, what the analysis
// produced, and how hard the runtime worked. It is written as indented
// JSON so operators can diff manifests across runs.
type Manifest struct {
	Scenario string    `json:"scenario"`
	Seed     uint64    `json:"seed"`
	Started  time.Time `json:"started"`
	// WallSeconds is the run's total wall time, measured monotonically
	// by the caller from process start to manifest write.
	WallSeconds float64 `json:"wall_seconds"`
	// Config is the scenario configuration, marshalled verbatim.
	Config json.RawMessage `json:"config,omitempty"`
	// Stages are the per-stage rollups (see Registry.StageSummary);
	// their Seconds sum to ~WallSeconds when the pipeline is fully
	// instrumented.
	Stages []StageRecord `json:"stages"`
	// MatrixRows and Networks give the similarity-matrix shape
	// (epochs × epochs over this many networks); 0 when no matrix ran.
	MatrixRows int `json:"matrix_rows,omitempty"`
	Networks   int `json:"networks,omitempty"`
	// Modes is the discovered routing-mode count.
	Modes int `json:"modes,omitempty"`
	// PeakGoroutines and PeakHeapBytes come from runtime sampling.
	PeakGoroutines int    `json:"peak_goroutines,omitempty"`
	PeakHeapBytes  uint64 `json:"peak_heap_bytes,omitempty"`
	// Counters and Gauges snapshot the registry at write time.
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// Histograms carry per-histogram count/sum/p50/p90/p99 rollups.
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
	// Events is the flight-recorder drain at write time: the most recent
	// structured events (quarantines, retries, 429s, checkpoints, fault
	// injections), oldest first.
	Events []Event `json:"events,omitempty"`
	// Detections are the run's explained change events: one provenance
	// rollup per ChangeEvent (verdict, magnitude, headline flow), in
	// detection order.
	Detections []DetectionSummary `json:"detections,omitempty"`
	// Alerts summarizes the telemetry-history alert engine at shutdown
	// (see internal/obs/history): rule count, samples taken, rules still
	// firing, and total firing/resolved transitions. Present whenever
	// the daemon ran with history sampling enabled, even if no rule ever
	// fired — absence means the run was not self-observing.
	Alerts *AlertsSummary `json:"alerts,omitempty"`
}

// AlertsSummary is the manifest's rollup of the alert engine's lifetime:
// filled by history.Store.ManifestSummary at shutdown.
type AlertsSummary struct {
	// Rules is the number of alert rules that were evaluated.
	Rules int `json:"rules"`
	// Samples is the number of sampler ticks taken over the run.
	Samples uint64 `json:"samples"`
	// Firing names the rules still firing at manifest write — a clean
	// shutdown after a healthy run leaves this empty.
	Firing []string `json:"firing"`
	// Transitions counts every firing/resolved state change over the run.
	Transitions int64 `json:"transitions"`
}

// DetectionSummary is the manifest's per-event provenance rollup,
// filled from a core.ChangeEvent's Explanation (see
// core.SummarizeDetections). Flow fields are empty when no weight
// verifiably moved between observed sites.
type DetectionSummary struct {
	At         int64   `json:"at"`
	Phi        float64 `json:"phi"`
	Baseline   float64 `json:"baseline"`
	Magnitude  float64 `json:"magnitude"`
	Verdict    string  `json:"verdict,omitempty"`
	Changed    int     `json:"changed,omitempty"`
	FlowFrom   string  `json:"flow_from,omitempty"`
	FlowTo     string  `json:"flow_to,omitempty"`
	FlowWeight float64 `json:"flow_weight,omitempty"`
}

// StageSeconds sums the recorded stage durations.
func (m *Manifest) StageSeconds() float64 {
	var sum float64
	for _, s := range m.Stages {
		sum += s.Seconds
	}
	return sum
}

// Stage returns the named stage record, or nil.
func (m *Manifest) Stage(name string) *StageRecord {
	for i := range m.Stages {
		if m.Stages[i].Name == name {
			return &m.Stages[i]
		}
	}
	return nil
}

// FillFromRegistry copies the registry's stage summary, flight events
// and current values (see Registry.Read) into the manifest. No-op on a
// nil registry.
func (m *Manifest) FillFromRegistry(r *Registry) {
	if r == nil {
		return
	}
	m.Stages = r.StageSummary()
	m.Events = r.Events(0)
	v := r.Read()
	m.Counters, m.Gauges = v.Counters, v.Gauges
	if len(v.Histograms) > 0 {
		m.Histograms = make(map[string]HistogramSummary, len(v.Histograms))
		for k, h := range v.Histograms {
			m.Histograms[k] = h.Summary()
		}
	}
}

// WriteManifest writes the manifest as indented JSON to path.
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadManifest reads a manifest previously written by WriteManifest.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parse manifest %s: %w", path, err)
	}
	return &m, nil
}

// RuntimeSampler polls the live goroutine count and the bytes in heap
// objects at a fixed interval, through the runtime/metrics read /status
// uses (ReadRuntimeHealth), tracking peaks for the manifest.
type RuntimeSampler struct {
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	peakG    int
	peakHeap uint64
}

// StartRuntimeSampler begins sampling in a background goroutine.
// interval <= 0 defaults to 25ms.
func StartRuntimeSampler(interval time.Duration) *RuntimeSampler {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	s := &RuntimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *RuntimeSampler) sample() {
	h := ReadRuntimeHealth()
	s.mu.Lock()
	s.peakG = max(s.peakG, h.Goroutines)
	s.peakHeap = max(s.peakHeap, h.HeapBytes)
	s.mu.Unlock()
}

// Stop takes a final sample, halts the sampler, and returns the peaks.
// Safe on a nil sampler (returns zeros).
func (s *RuntimeSampler) Stop() (peakGoroutines int, peakHeapBytes uint64) {
	if s == nil {
		return 0, 0
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakG, s.peakHeap
}

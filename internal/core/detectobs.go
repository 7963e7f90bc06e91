package core

import (
	"fenrir/internal/obs"
)

// logDetection writes an explained change event's flight-recorder line,
// carrying its provenance (verdict, magnitude, top flow). A nil registry
// is a no-op, per the obs contract.
func logDetection(r *obs.Registry, ev ChangeEvent) {
	if r == nil || ev.Explanation == nil {
		return
	}
	ex := ev.Explanation
	args := []any{
		"at", int64(ev.At),
		"phi", ev.Phi,
		"baseline", ev.Baseline,
		"magnitude", ev.Magnitude,
		"verdict", ex.Label(),
		"changed", ex.ChangedCount,
		"moved", ex.Moved,
		"unobserved", ex.Unobserved,
	}
	if f, ok := ex.TopFlow(); ok {
		args = append(args, "flow_from", f.From, "flow_to", f.To, "flow_weight", f.Count)
	}
	r.Logger().Info("change detected", args...)
}

// ObserveDetections feeds a batch of explained change events into a
// registry: a flight-recorder line per event (see logDetection) and the
// fenrir_detect_recurrence_total / fenrir_detect_novel_total counters.
// It annotates the detection span, when one is given, with the
// recurrence/novel split. The streaming Monitor feeds the same counters
// per event through the handles Instrument resolves.
func ObserveDetections(r *obs.Registry, sp *obs.Span, events []ChangeEvent) {
	recur, novel := 0, 0
	for _, ev := range events {
		if ev.Explanation == nil {
			continue
		}
		if ev.Explanation.Recurrence {
			recur++
		} else {
			novel++
		}
		logDetection(r, ev)
	}
	// One lookup per verdict per call, and none for a verdict that did
	// not occur: a batch run registers no counter it never moves.
	if recur > 0 {
		r.Counter("fenrir_detect_recurrence_total").Add(int64(recur))
	}
	if novel > 0 {
		r.Counter("fenrir_detect_novel_total").Add(int64(novel))
	}
	if sp != nil {
		sp.SetAttr("recurrences", recur)
		sp.SetAttr("novel", novel)
	}
}

// SummarizeDetections rolls explained change events up into manifest
// rows: epoch, magnitude, verdict, and the headline site flow.
func SummarizeDetections(events []ChangeEvent) []obs.DetectionSummary {
	if len(events) == 0 {
		return nil
	}
	out := make([]obs.DetectionSummary, 0, len(events))
	for _, ev := range events {
		s := obs.DetectionSummary{
			At:        int64(ev.At),
			Phi:       ev.Phi,
			Baseline:  ev.Baseline,
			Magnitude: ev.Magnitude,
		}
		if ex := ev.Explanation; ex != nil {
			s.Verdict = ex.Label()
			s.Changed = ex.ChangedCount
			if f, ok := ex.TopFlow(); ok {
				s.FlowFrom, s.FlowTo, s.FlowWeight = f.From, f.To, f.Count
			}
		}
		out = append(out, s)
	}
	return out
}

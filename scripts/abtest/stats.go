package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is a sample's median and quartiles.
type summary struct {
	Median, Q1, Q3 float64
}

// IQR is the distance between the quartiles.
func (s summary) IQR() float64 { return s.Q3 - s.Q1 }

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks of the sorted sample (Hyndman and Fan's type 7, the
// default of R and NumPy). xs is not modified; an empty sample has no
// quantile, so it returns NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func summarize(xs []float64) summary {
	return summary{Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // the share by which the median may worsen
}

// comparison is one metric over the pairs in which both sides produced
// it: base[i] and change[i] come from pair i.
type comparison struct {
	Metric       metric
	Base, Change []float64
}

// ratios are change/base, one per pair.
func (c comparison) ratios() []float64 {
	out := make([]float64, len(c.Base))
	for i := range c.Base {
		out[i] = c.Change[i] / c.Base[i]
	}
	return out
}

// improves reports whether moving from a to b is a strict improvement;
// equal values improve nothing.
func (c comparison) improves(a, b float64) bool {
	if c.Metric.Better == "higher" {
		return b > a
	}
	return b < a
}

// wins counts the pairs in which the change reads strictly better; ties
// count for neither side.
func (c comparison) wins() int {
	n := 0
	for i := range c.Base {
		if c.improves(c.Base[i], c.Change[i]) {
			n++
		}
	}
	return n
}

// gap is how far the change's median is better than the base's, in the
// metric's unit: positive when the change is better.
func (c comparison) gap() float64 {
	b, ch := quantile(c.Base, 0.5), quantile(c.Change, 0.5)
	if c.Metric.Better == "higher" {
		return ch - b
	}
	return b - ch
}

// claimHolds is the rule for claiming a gain: the change wins at least
// nine tenths of the pairs, and its median is better than the base's by
// more than the base's interquartile range.
func (c comparison) claimHolds() bool {
	n := len(c.Base)
	return n > 0 && 10*c.wins() >= 9*n && c.gap() > summarize(c.Base).IQR()
}

// withinBound reports whether the change's median is worse than the
// base's by no more than the metric's bound, a share of the base median.
func (c comparison) withinBound() bool {
	return -c.gap() <= c.Metric.Bound*math.Abs(quantile(c.Base, 0.5))
}

// relative is the change's median over the base's, minus one.
func (c comparison) relative() float64 {
	return quantile(c.Change, 0.5)/quantile(c.Base, 0.5) - 1
}

// report is the printed block for one metric.
func (c comparison) report() string {
	m := c.Metric
	b, ch := summarize(c.Base), summarize(c.Change)
	out := fmt.Sprintf("%s (%s, %s is better, bound %.0f%%)\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	out += fmt.Sprintf("  base    median %s  quartiles %s-%s  IQR %s  runs %s\n", num(b.Median), num(b.Q1), num(b.Q3), num(b.IQR()), nums(c.Base))
	out += fmt.Sprintf("  change  median %s  quartiles %s-%s  IQR %s  runs %s\n", num(ch.Median), num(ch.Q1), num(ch.Q3), num(ch.IQR()), nums(c.Change))
	out += fmt.Sprintf("  change/base per pair: %s\n", nums(c.ratios()))
	out += fmt.Sprintf("  change better in %d of %d pairs; median %+.1f%%\n", c.wins(), len(c.Base), 100*c.relative())
	verdict := "does not hold"
	if c.claimHolds() {
		verdict = "holds"
	}
	out += fmt.Sprintf("  claim rule (>= 9/10 of pairs won, median gap > base IQR): %s (%d/%d won, gap %s, base IQR %s)\n",
		verdict, c.wins(), len(c.Base), num(c.gap()), num(b.IQR()))
	bound := "within"
	if !c.withinBound() {
		bound = "OVER"
	}
	out += fmt.Sprintf("  no-regression bound: %s (median %+.1f%%, bound %.0f%% worse)\n", bound, 100*c.relative(), 100*m.Bound)
	return out
}

// num prints a value with four significant digits.
func num(x float64) string { return fmt.Sprintf("%.4g", x) }

func nums(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += num(x)
	}
	return out
}

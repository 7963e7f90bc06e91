// Package faults is a deterministic, seed-driven fault-injection layer
// for Fenrir's measurement paths. It wraps the simulated forwarding plane
// (internal/dataplane), the route collector's BGP session streams and the
// daemon's ingest bodies so every substrate — verfploeter pings,
// traceroute TTL walks, Atlas CHAOS queries, EDNS-CS sweeps, BGP sessions,
// ingest requests — can be stressed reproducibly with packet loss bursts,
// duplication, reordering, payload corruption, delay spikes, stuck or
// bogus site labels, truncated records, and vantage-point blackouts.
//
// Two invariants anchor the design:
//
//  1. Zero-fault byte identity. New returns a nil *Injector for the zero
//     profile, and every method on a nil *Injector is a no-op that passes
//     its input through untouched. Wrap returns the wrapped plane itself.
//     A run with profile "none" therefore executes exactly the same code
//     and draws exactly the same dataplane RNG sequence as a build without
//     this package, so its outputs are byte-identical.
//
//  2. Seeded determinism. All injection decisions come from rng streams
//     split off one seed, drawn in observation order. Observation is
//     serial in every scenario (only the similarity matrix parallelises),
//     so the same seed produces the identical fault sequence — and
//     identical pipeline outputs — at any parallelism.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"fenrir/internal/obs"
	"fenrir/internal/rng"
)

// Profile is a named set of fault rates. All rates are probabilities per
// opportunity (per datagram, per probe, per stream, per blackout window);
// the zero value injects nothing.
type Profile struct {
	Name string

	// LossStart is the per-message probability that a loss burst begins;
	// once started, a burst drops LossBurstMean further messages on
	// average (exponentially distributed), modelling correlated loss.
	LossStart     float64
	LossBurstMean float64

	// DupRate duplicates a delivered datagram; ReorderRate holds a
	// datagram back and delivers it after its successor.
	DupRate     float64
	ReorderRate float64

	// CorruptRate flips one bit of a payload. Checksummed formats (ICMP)
	// then fail verification and degrade honestly to a timeout; formats
	// without end-to-end checksums (DNS) may deliver garbled data, which
	// is exactly what the cleaning stage must survive.
	CorruptRate float64

	// DelaySpikeRate adds a DelaySpikeMs-scale spike to a reply's RTT.
	DelaySpikeRate float64
	DelaySpikeMs   float64

	// StuckSiteRate replays the previously observed site label instead of
	// the current one (a stale cache / stuck frontend); BogusSiteRate
	// substitutes a label no operator site list contains.
	StuckSiteRate float64
	BogusSiteRate float64

	// TruncateRate cuts a byte stream (a BGP session transcript) short.
	TruncateRate float64

	// BlackoutRate darkens a vantage point for BlackoutLen consecutive
	// epochs: within a blackout window every probe from that entity times
	// out. The decision is a stateless hash of (seed, entity, window), so
	// it is reproducible regardless of call order.
	BlackoutRate float64
	BlackoutLen  int
}

// Zero reports whether the profile injects nothing.
func (p Profile) Zero() bool {
	return p.LossStart == 0 && p.DupRate == 0 && p.ReorderRate == 0 &&
		p.CorruptRate == 0 && p.DelaySpikeRate == 0 && p.StuckSiteRate == 0 &&
		p.BogusSiteRate == 0 && p.TruncateRate == 0 && p.BlackoutRate == 0
}

// Named profiles, selectable via cmd/fenrir -faults.
var profiles = []Profile{
	{Name: "none"},
	{
		Name:      "light",
		LossStart: 0.01, LossBurstMean: 2,
		DupRate: 0.005, ReorderRate: 0.005,
		CorruptRate:    0.005,
		DelaySpikeRate: 0.01, DelaySpikeMs: 250,
		StuckSiteRate: 0.002, BogusSiteRate: 0.002,
		TruncateRate: 0.01,
		BlackoutRate: 0.005, BlackoutLen: 3,
	},
	{
		Name:      "heavy",
		LossStart: 0.05, LossBurstMean: 4,
		DupRate: 0.02, ReorderRate: 0.02,
		CorruptRate:    0.03,
		DelaySpikeRate: 0.05, DelaySpikeMs: 800,
		StuckSiteRate: 0.01, BogusSiteRate: 0.01,
		TruncateRate: 0.05,
		BlackoutRate: 0.02, BlackoutLen: 5,
	},
	{
		// The B-Root 2023-07..12 shape: long vantage-point dark windows
		// with mild background loss and everything else clean.
		Name:          "blackout",
		LossStart:     0.02,
		LossBurstMean: 3,
		BlackoutRate:  0.15, BlackoutLen: 4,
	},
	{
		// Data-quality stress: payloads and labels lie, packets arrive.
		Name:          "corrupt",
		CorruptRate:   0.08,
		StuckSiteRate: 0.02, BogusSiteRate: 0.03,
		TruncateRate: 0.08,
	},
}

// ByName looks up a named profile.
func ByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names lists the selectable profile names in definition order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// BogusSite is the label substituted by bogus-site faults. It decodes (via
// the engines' last-dash-token rule) to an identifier outside every
// operator site list, so Quarantine must catch it.
const BogusSite = "bogus-zz9"

// ErrInjected is the sentinel matched by errors.Is for every error this
// package fabricates.
var ErrInjected = errors.New("faults: injected fault")

// Error is a typed injected-fault error carrying where and what.
type Error struct {
	Substrate string
	Kind      string
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s on %s", e.Kind, e.Substrate)
}

// Is makes errors.Is(err, ErrInjected) match.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Injector injects faults per a Profile. The zero-profile Injector is nil,
// and every method is safe (and a pass-through no-op) on a nil receiver.
// Injection decisions are serialized under one mutex; within a serial
// observation pass the draw order — and therefore the fault sequence — is
// fully determined by the seed.
type Injector struct {
	prof Profile
	seed uint64
	reg  *obs.Registry

	mu       sync.Mutex
	rLoss    *rng.Source
	rDup     *rng.Source
	rReorder *rng.Source
	rCorrupt *rng.Source
	rDelay   *rng.Source
	rSite    *rng.Source
	rTrunc   *rng.Source

	lossLeft    map[string]int       // per-substrate remaining burst length
	held        map[string][]byte    // per-substrate reorder hold slot
	stuck       map[string]string    // per-substrate last observed site label
	injected    map[[2]string]*tally // {substrate, kind} → count
	retries     map[string]*tally    // substrate → retry count
	quarantined map[string]*tally    // reason → observation count
}

// tally is one count of the report and the counter it mirrors to. The
// counter is resolved when its key is first seen, so a repeat event
// costs a map lookup and an atomic add, and allocates nothing.
type tally struct {
	n int
	c *obs.Counter
}

// add bumps m[k] by n, resolving its counter name(k) in reg on first use.
func add[K comparable](m map[K]*tally, k K, n int, reg *obs.Registry, name func(K) string) {
	t := m[k]
	if t == nil {
		t = &tally{c: reg.Counter(name(k))}
		m[k] = t
	}
	t.n += n
	t.c.Add(int64(n))
}

// New builds an injector for the profile. The zero profile (including
// "none") yields nil, which downstream code treats as "no fault layer at
// all" — the zero-fault byte-identity guarantee rests on that. reg may be
// nil; when set, injections and quarantines are mirrored to obs counters.
func New(prof Profile, seed uint64, reg *obs.Registry) *Injector {
	if prof.Zero() {
		return nil
	}
	base := rng.New(seed)
	return &Injector{
		prof:        prof,
		seed:        seed,
		reg:         reg,
		rLoss:       base.Split("faults-loss"),
		rDup:        base.Split("faults-dup"),
		rReorder:    base.Split("faults-reorder"),
		rCorrupt:    base.Split("faults-corrupt"),
		rDelay:      base.Split("faults-delay"),
		rSite:       base.Split("faults-site"),
		rTrunc:      base.Split("faults-trunc"),
		lossLeft:    make(map[string]int),
		held:        make(map[string][]byte),
		stuck:       make(map[string]string),
		injected:    make(map[[2]string]*tally),
		retries:     make(map[string]*tally),
		quarantined: make(map[string]*tally),
	}
}

// count records one injected fault; callers hold inj.mu. Injections are
// counted, not logged: a faulted run injects thousands, and one flight
// event each would evict everything else from the recorder's ring.
func (inj *Injector) count(substrate, kind string) {
	add(inj.injected, [2]string{substrate, kind}, 1, inj.reg, func(k [2]string) string {
		return fmt.Sprintf("fenrir_faults_injected_total{substrate=%q,kind=%q}", k[0], k[1])
	})
}

// lose runs the per-substrate loss-burst machine: a started burst eats
// the next few messages too. Callers hold inj.mu.
func (inj *Injector) lose(substrate string) bool {
	if left := inj.lossLeft[substrate]; left > 0 {
		inj.lossLeft[substrate] = left - 1
		inj.count(substrate, "loss")
		return true
	}
	if inj.prof.LossStart > 0 && inj.rLoss.Bool(inj.prof.LossStart) {
		extra := 0
		if inj.prof.LossBurstMean > 0 {
			extra = int(inj.rLoss.ExpFloat64() * inj.prof.LossBurstMean)
		}
		inj.lossLeft[substrate] = extra
		inj.count(substrate, "loss")
		return true
	}
	return false
}

// corruptBytes flips one bit of a copy of b. Callers hold inj.mu.
func (inj *Injector) corruptBytes(substrate string, b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	out := append([]byte(nil), b...)
	idx := inj.rCorrupt.Intn(len(out))
	out[idx] ^= 1 << inj.rCorrupt.Intn(8)
	inj.count(substrate, "corrupt")
	return out
}

// Datagram passes one datagram through the fault model and reports how to
// deliver it: out is the (possibly corrupted or reordered) payload, drop
// asks the caller to discard it, dup asks for a second delivery. Nil
// injector: (b, false, false).
func (inj *Injector) Datagram(substrate string, b []byte) (out []byte, drop, dup bool) {
	if inj == nil {
		return b, false, false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.lose(substrate) {
		return nil, true, false
	}
	out = b
	if inj.prof.CorruptRate > 0 && inj.rCorrupt.Bool(inj.prof.CorruptRate) {
		out = inj.corruptBytes(substrate, out)
	}
	if inj.prof.ReorderRate > 0 && inj.rReorder.Bool(inj.prof.ReorderRate) {
		// Hold this datagram; deliver the previously held one instead, or
		// nothing if the slot was empty (it will ride out with a later
		// datagram, i.e. arrive out of order).
		prev := inj.held[substrate]
		inj.held[substrate] = append([]byte(nil), out...)
		inj.count(substrate, "reorder")
		if prev == nil {
			return nil, true, false
		}
		out = prev
	} else if prev := inj.held[substrate]; prev != nil {
		// Flush the hold slot: deliver the held datagram now (late), and
		// let the current one take its place so both eventually arrive.
		inj.held[substrate] = append([]byte(nil), out...)
		out = prev
	}
	if inj.prof.DupRate > 0 && inj.rDup.Bool(inj.prof.DupRate) {
		inj.count(substrate, "duplicate")
		dup = true
	}
	return out, false, dup
}

// Stream passes a whole byte stream (a BGP session transcript) through the
// corruption and truncation faults. Nil injector: b.
func (inj *Injector) Stream(substrate string, b []byte) []byte {
	if inj == nil || len(b) == 0 {
		return b
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := b
	if inj.prof.CorruptRate > 0 && inj.rCorrupt.Bool(inj.prof.CorruptRate) {
		out = inj.corruptBytes(substrate, out)
	}
	if inj.prof.TruncateRate > 0 && inj.rTrunc.Bool(inj.prof.TruncateRate) {
		cut := inj.rTrunc.Intn(len(out))
		out = append([]byte(nil), out[:cut]...)
		inj.count(substrate, "truncate")
	}
	return out
}

// Blackout reports whether entity (a vantage point, keyed by e.g. its
// source address) is dark at epoch. The decision hashes (seed, substrate,
// entity, epoch/BlackoutLen) statelessly — the same triple always answers
// the same, independent of call order — so whole BlackoutLen-epoch windows
// go dark per entity, like a vantage point that stopped reporting.
func (inj *Injector) Blackout(substrate string, entity uint64, epoch int) bool {
	if inj == nil || inj.prof.BlackoutRate <= 0 {
		return false
	}
	ln := inj.prof.BlackoutLen
	if ln <= 0 {
		ln = 1
	}
	if epoch < 0 {
		epoch = 0
	}
	h := inj.seed ^ entity*0x9e3779b97f4a7c15 ^ uint64(epoch/ln)*0xbf58476d1ce4e5b9
	for i := 0; i < len(substrate); i++ {
		h = (h ^ uint64(substrate[i])) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	dark := float64(h>>11)/(1<<53) < inj.prof.BlackoutRate
	if dark {
		inj.mu.Lock()
		inj.count(substrate, "blackout")
		inj.mu.Unlock()
	}
	return dark
}

// SiteLabel passes an observed site label through the stuck/bogus faults:
// occasionally the previously seen label is replayed, or a label outside
// any site list is substituted. Empty labels pass through. Nil injector:
// site unchanged.
func (inj *Injector) SiteLabel(substrate, site string) string {
	if inj == nil || site == "" {
		return site
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.prof.BogusSiteRate > 0 && inj.rSite.Bool(inj.prof.BogusSiteRate) {
		inj.count(substrate, "bogus-site")
		return BogusSite
	}
	prev, have := inj.stuck[substrate]
	fire := inj.prof.StuckSiteRate > 0 && inj.rSite.Bool(inj.prof.StuckSiteRate)
	if !fire || !have {
		inj.stuck[substrate] = site
	}
	if fire && have && prev != site {
		inj.count(substrate, "stuck-site")
		return prev
	}
	return site
}

// DelayMs returns an injected delay spike in milliseconds (0 most of the
// time). Nil injector: 0.
func (inj *Injector) DelayMs(substrate string) float64 {
	if inj == nil || inj.prof.DelaySpikeRate <= 0 {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.rDelay.Bool(inj.prof.DelaySpikeRate) {
		return 0
	}
	inj.count(substrate, "delay-spike")
	return inj.prof.DelaySpikeMs * (0.5 + inj.rDelay.Float64())
}

// Quarantine records n observations quarantined at an ingest boundary for
// the given reason, mirroring to the obs counter
// fenrir_quarantined_total{reason=...}. n may be 0 to materialize the
// counter (so manifests show an explicit zero). Nil injector: no-op.
func (inj *Injector) Quarantine(reason string, n int) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	add(inj.quarantined, reason, n, inj.reg, func(r string) string {
		return fmt.Sprintf("fenrir_quarantined_total{reason=%q}", r)
	})
	if n > 0 {
		inj.reg.Logger().Warn("observations quarantined", "reason", reason, "count", n)
	}
}

// retry records one retry attempt granted to substrate. Like an
// injection, a retry is counted, not logged.
func (inj *Injector) retry(substrate string) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	add(inj.retries, substrate, 1, inj.reg, func(s string) string {
		return fmt.Sprintf("fenrir_fault_retries_total{substrate=%q}", s)
	})
}

// Report is a snapshot of everything the injector did, attached to
// scenario results and printed by cmd/fenrir.
type Report struct {
	Profile     string         `json:"profile"`
	Seed        uint64         `json:"seed"`
	Injected    map[string]int `json:"injected"`    // "substrate/kind" → count
	Retries     map[string]int `json:"retries"`     // substrate → count
	Quarantined map[string]int `json:"quarantined"` // reason → count
}

// Report snapshots the injector's statistics. Nil injector: nil.
func (inj *Injector) Report() *Report {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	r := &Report{
		Profile:     inj.prof.Name,
		Seed:        inj.seed,
		Injected:    make(map[string]int, len(inj.injected)),
		Retries:     make(map[string]int, len(inj.retries)),
		Quarantined: make(map[string]int, len(inj.quarantined)),
	}
	for k, t := range inj.injected {
		r.Injected[k[0]+"/"+k[1]] = t.n
	}
	for k, t := range inj.retries {
		r.Retries[k] = t.n
	}
	for k, t := range inj.quarantined {
		r.Quarantined[k] = t.n
	}
	return r
}

// TotalInjected sums injected fault counts across substrates and kinds.
func (r *Report) TotalInjected() int {
	if r == nil {
		return 0
	}
	total := 0
	for _, v := range r.Injected {
		total += v
	}
	return total
}

// TotalQuarantined sums quarantined observation counts across reasons.
func (r *Report) TotalQuarantined() int {
	if r == nil {
		return 0
	}
	total := 0
	for _, v := range r.Quarantined {
		total += v
	}
	return total
}

// String renders a stable, human-readable multi-line summary.
func (r *Report) String() string {
	if r == nil {
		return "faults: none"
	}
	out := fmt.Sprintf("faults: profile=%s seed=%d injected=%d quarantined=%d\n",
		r.Profile, r.Seed, r.TotalInjected(), r.TotalQuarantined())
	for _, k := range sortedKeys(r.Injected) {
		out += fmt.Sprintf("  injected   %-28s %d\n", k, r.Injected[k])
	}
	for _, k := range sortedKeys(r.Retries) {
		out += fmt.Sprintf("  retries    %-28s %d\n", k, r.Retries[k])
	}
	for _, k := range sortedKeys(r.Quarantined) {
		out += fmt.Sprintf("  quarantine %-28s %d\n", k, r.Quarantined[k])
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Package core implements Fenrir's analysis pipeline — the paper's primary
// contribution. It turns cleaned catchment observations into routing
// vectors (§2.2), compares them with weighted Gower similarity (§2.6.1),
// discovers recurring routing modes with hierarchical agglomerative
// clustering under an adaptively chosen distance threshold (§2.6.2),
// quantifies change with transition matrices (§2.7), and detects change
// events for validation against operator ground truth (§3).
//
// Vectors live in a Space: a fixed, ordered universe of networks plus an
// interned site alphabet. Keeping assignments as int32 indexes into the
// Space makes the all-pairs Φ computation over years of daily vectors a
// tight loop over dense slices rather than map traffic.
package core

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"

	"fenrir/internal/timeline"
)

// Unknown is the assignment index for a network whose catchment was not
// observed. The paper's Φ treats unknowns pessimistically: they never
// match, pulling similarity down (§2.6.1).
const Unknown int32 = -1

// Reserved site labels mirroring the paper's figures: probes that failed
// ("err") and responses that could not be attributed ("other").
const (
	SiteError = "err"
	SiteOther = "other"
)

// Space defines the universe a family of vectors shares: the ordered set
// of networks (rows of D) and the interned site alphabet (values of D).
// The network universe is fixed; the alphabet grows, and is safe to
// intern into and read from concurrently — the daemon interns labels in
// concurrent ingest handlers while query handlers render them.
type Space struct {
	nets   []string
	netIdx map[string]int
	sites  siteAlphabet
}

// siteAlphabet is the interned site alphabet. Readers never lock: they
// load the current siteTable, whose slots change only by atomic stores
// and whose labels prefix never changes. Interning a new label takes mu,
// stores one slot, and publishes a table with one more label; the slot
// array doubles when a quarter full, so interning costs amortized O(1).
// The low load and the hash tags keep a lookup — which Vector.Set does
// for every cell — near one slot read and one label compare.
type siteAlphabet struct {
	tab atomic.Pointer[siteTable]
	mu  sync.Mutex
}

// siteTable is one published state of the alphabet: an open-addressed
// hash index (linear probing, power-of-two size) over the labels in
// interning order. A slot holds a label's hash tag (high 32 bits) and
// index+1 (low 32 bits); zero is empty. Successive tables share the slot
// array until it grows, so a slot may name a label past this table's
// labels, and share the labels' backing array, appending past every
// older table's length.
type siteTable struct {
	slots  []atomic.Uint64
	labels []string
}

var siteSeed = maphash.MakeSeed()

// find returns the index of an interned label.
func (t *siteTable) find(label string) (int32, bool) {
	h := maphash.String(siteSeed, label)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, false
		}
		if s>>32 == h>>32 {
			if idx := int(uint32(s)) - 1; idx < len(t.labels) && t.labels[idx] == label {
				return int32(idx), true
			}
		}
	}
}

// put indexes label number idx in the first free slot of its probe
// sequence.
func (t *siteTable) put(label string, idx int) {
	h := maphash.String(siteSeed, label)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].Store(h>>32<<32 | uint64(idx+1))
}

// intern returns label's index, assigning the next one on first use.
func (a *siteAlphabet) intern(label string) int32 {
	if i, ok := a.tab.Load().find(label); ok {
		return i
	}
	return a.add(label)
}

// add interns a label the lock-free lookup missed.
func (a *siteAlphabet) add(label string) int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tab.Load()
	if i, ok := t.find(label); ok {
		return i // a concurrent intern won the race
	}
	n := len(t.labels)
	next := &siteTable{slots: t.slots, labels: append(t.labels, label)}
	if 4*(n+1) > len(t.slots) {
		next.slots = make([]atomic.Uint64, 2*len(t.slots))
		for i, l := range t.labels {
			next.put(l, i)
		}
	}
	next.put(label, n)
	a.tab.Store(next)
	return int32(n)
}

// labels returns the interned labels in interning order; callers must
// not modify the slice.
func (a *siteAlphabet) labels() []string { return a.tab.Load().labels }

// NewSpace creates a space over the given network identifiers (e.g. "/24"
// prefixes or vantage-point names). Order is preserved and duplicate
// identifiers panic: the network universe is fixed per study, so a
// duplicate indicates a data-assembly bug. Use TryNewSpace for network
// lists that come from outside the program.
func NewSpace(networks []string) *Space {
	s, err := TryNewSpace(networks)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// TryNewSpace is NewSpace returning an error, not panicking, on a
// duplicate identifier.
func TryNewSpace(networks []string) (*Space, error) {
	s := &Space{
		nets:   append([]string(nil), networks...),
		netIdx: make(map[string]int, len(networks)),
	}
	s.sites.tab.Store(&siteTable{slots: make([]atomic.Uint64, 8)})
	for i, n := range networks {
		if _, dup := s.netIdx[n]; dup {
			return nil, fmt.Errorf("core: duplicate network %q", n)
		}
		s.netIdx[n] = i
	}
	return s, nil
}

// NumNetworks returns the size of the network universe.
func (s *Space) NumNetworks() int { return len(s.nets) }

// Network returns the identifier of network i.
func (s *Space) Network(i int) string { return s.nets[i] }

// NetworkIndex resolves an identifier to its row, or -1.
func (s *Space) NetworkIndex(name string) int {
	if i, ok := s.netIdx[name]; ok {
		return i
	}
	return -1
}

// SiteIndex interns a site label, assigning the next index on first use.
func (s *Space) SiteIndex(name string) int32 { return s.sites.intern(name) }

// SiteName returns the label of an interned site index; Unknown maps to
// the empty string.
func (s *Space) SiteName(i int32) string {
	if i == Unknown {
		return ""
	}
	return s.sites.labels()[i]
}

// Sites returns the interned site labels in interning order.
func (s *Space) Sites() []string { return append([]string(nil), s.sites.labels()...) }

// NumSites returns the number of interned sites.
func (s *Space) NumSites() int { return len(s.sites.labels()) }

// Vector is one routing result D(t): the catchment assignment of every
// network in the space at epoch T.
type Vector struct {
	Space  *Space
	T      timeline.Epoch
	assign []int32
}

// NewVector returns an all-unknown vector for epoch t.
func (s *Space) NewVector(t timeline.Epoch) *Vector {
	v := &Vector{Space: s, T: t, assign: make([]int32, len(s.nets))}
	for i := range v.assign {
		v.assign[i] = Unknown
	}
	return v
}

// Set assigns network row n to the named site.
func (v *Vector) Set(n int, site string) { v.assign[n] = v.Space.SiteIndex(site) }

// SetIndex assigns network row n to an already-interned site index.
func (v *Vector) SetIndex(n int, site int32) { v.assign[n] = site }

// SetUnknown clears network row n.
func (v *Vector) SetUnknown(n int) { v.assign[n] = Unknown }

// Get returns the interned site index of network row n (Unknown = -1).
func (v *Vector) Get(n int) int32 { return v.assign[n] }

// Site returns the site label of network row n, with ok=false when the
// assignment is unknown.
func (v *Vector) Site(n int) (string, bool) {
	a := v.assign[n]
	if a == Unknown {
		return "", false
	}
	return v.Space.sites.labels()[a], true
}

// Assignments returns a copy of the vector's interned assignment row
// (Unknown = -1), the raw form checkpoint codecs persist.
func (v *Vector) Assignments() []int32 {
	return append([]int32(nil), v.assign...)
}

// Clone returns a deep copy (used by the cleaning stages, which must not
// mutate raw observations).
func (v *Vector) Clone() *Vector {
	// make then copy of local names compiles to one allocation that
	// skips zeroing the row.
	src := v.assign
	assign := make([]int32, len(src))
	copy(assign, src)
	return &Vector{Space: v.Space, T: v.T, assign: assign}
}

// KnownWords fills dst with the vector's known masks, 64 networks per
// word: bit i of dst[k] is set iff network 64k+i has a known assignment.
// dst holds ⌈NumNetworks/64⌉ words; bits past the last network stay
// clear. They are the known words of the packed Φ engine's rows.
func (v *Vector) KnownWords(dst []uint64) {
	for k := range dst {
		dst[k] = knownWord(v.assign[k*64 : min(k*64+64, len(v.assign))])
	}
}

// KnownCount returns how many networks have a known assignment.
func (v *Vector) KnownCount() int {
	n := 0
	for _, a := range v.assign {
		if a != Unknown {
			n++
		}
	}
	return n
}

// Aggregate computes A(t): the number of networks assigned to each site
// (§2.2). Unknown networks are omitted.
func (v *Vector) Aggregate() map[string]int {
	out := make(map[string]int)
	labels := v.Space.sites.labels()
	for _, a := range v.assign {
		if a != Unknown {
			out[labels[a]]++
		}
	}
	return out
}

// AggregateWeighted computes A(t) with per-network weights (§2.5).
func (v *Vector) AggregateWeighted(w []float64) map[string]float64 {
	out := make(map[string]float64)
	labels := v.Space.sites.labels()
	for i, a := range v.assign {
		if a != Unknown {
			out[labels[a]] += w[i]
		}
	}
	return out
}

// OneHot renders the N×|S| indicator matrix D*(t) from §2.2. It exists
// for the mathematical definition and for tests; the pipeline itself works
// on the compact index form.
func (v *Vector) OneHot() [][]uint8 {
	m := make([][]uint8, len(v.assign))
	for i, a := range v.assign {
		row := make([]uint8, v.Space.NumSites())
		if a != Unknown {
			row[a] = 1
		}
		m[i] = row
	}
	return m
}

// Series is an ordered collection of vectors over one schedule, the unit
// the comparison, clustering and detection stages consume.
type Series struct {
	Space    *Space
	Schedule timeline.Schedule
	Vectors  []*Vector // sorted by epoch
	Gaps     *timeline.Gaps
}

// NewSeries assembles a series, sorting vectors by epoch. It panics if two
// vectors share an epoch or belong to a different space — use TryNewSeries
// at ingest boundaries that must survive bad batches.
func NewSeries(space *Space, sched timeline.Schedule, vs []*Vector, gaps *timeline.Gaps) *Series {
	s, err := TryNewSeries(space, sched, vs, gaps)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Len returns the number of vectors.
func (s *Series) Len() int { return len(s.Vectors) }

// At returns the vector with epoch e, or nil (collection gap).
func (s *Series) At(e timeline.Epoch) *Vector {
	i := sort.Search(len(s.Vectors), func(i int) bool { return s.Vectors[i].T >= e })
	if i < len(s.Vectors) && s.Vectors[i].T == e {
		return s.Vectors[i]
	}
	return nil
}

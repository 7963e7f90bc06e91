package snapshot

import (
	"io"

	"fenrir/internal/core"
	"fenrir/internal/timeline"
)

// encodeSpace renders the space section: the network universe in row
// order, then the interned site alphabet in interning order. Restoring
// interns the sites in the same order, so every persisted int32
// assignment decodes to the same label it encoded from.
func encodeSpace(s *core.Space) []byte {
	var e enc
	e.u32(uint32(s.NumNetworks()))
	for i := 0; i < s.NumNetworks(); i++ {
		e.str(s.Network(i))
	}
	sites := s.Sites()
	e.u32(uint32(len(sites)))
	for _, site := range sites {
		e.str(site)
	}
	return e.buf
}

func decodeSpace(payload []byte) (*core.Space, int, error) {
	d := &dec{buf: payload}
	// Every string costs at least its 4-byte length prefix.
	nets := make([]string, d.count(4))
	for i := range nets {
		nets[i] = d.str()
	}
	numSites := d.count(4)
	sites := make([]string, numSites)
	for i := range sites {
		sites[i] = d.str()
	}
	if err := d.done("space"); err != nil {
		return nil, 0, err
	}
	space, err := core.TryNewSpace(nets)
	if err != nil {
		return nil, 0, corrupt("space", "%v", err)
	}
	for i, site := range sites {
		if got := space.SiteIndex(site); int(got) != i {
			return nil, 0, corrupt("space", "site %q interned at %d, want %d (duplicate label?)", site, got, i)
		}
	}
	return space, numSites, nil
}

// encodeSchedule renders a schedule as (start unix-nanos, interval,
// length). The start instant round-trips exactly; its wall-clock zone is
// normalized to UTC on restore.
func encodeSchedule(e *enc, sched timeline.Schedule) {
	e.i64(sched.Start.UnixNano())
	e.i64(int64(sched.Interval))
	e.i64(int64(sched.N))
}

func decodeSchedule(d *dec) timeline.Schedule {
	start := d.i64()
	interval := d.i64()
	n := d.i64()
	if d.bad {
		return timeline.Schedule{}
	}
	return timeline.Schedule{
		Start:    unixNanoUTC(start),
		Interval: timeDuration(interval),
		N:        int(n),
	}
}

// encodeVectors renders the observation history: per-vector epoch plus
// the raw interned assignment row.
func encodeVectors(space *core.Space, vs []*core.Vector) []byte {
	var e enc
	e.u32(uint32(len(vs)))
	e.u32(uint32(space.NumNetworks()))
	for _, v := range vs {
		e.i64(int64(v.T))
		for _, a := range v.Assignments() {
			e.u32(uint32(a))
		}
	}
	return e.buf
}

func decodeVectors(payload []byte, space *core.Space, numSites int) ([]*core.Vector, error) {
	d := &dec{buf: payload}
	count := int(d.u32())
	width := int(d.u32())
	if !d.bad && width != space.NumNetworks() {
		return nil, corrupt("vectors", "assignment width %d != networks %d", width, space.NumNetworks())
	}
	// Each vector is an 8-byte epoch plus one u32 per network.
	if !d.fit(count, 8+4*width) {
		count = 0
	}
	vs := make([]*core.Vector, 0, count)
	for i := 0; i < count; i++ {
		v := space.NewVector(timeline.Epoch(d.i64()))
		for n := 0; n < width; n++ {
			a := int32(d.u32())
			if d.bad {
				break
			}
			if a != core.Unknown && (a < 0 || int(a) >= numSites) {
				return nil, corrupt("vectors", "vector %d network %d: site index %d outside alphabet of %d", i, n, a, numSites)
			}
			v.SetIndex(n, a)
		}
		vs = append(vs, v)
	}
	if err := d.done("vectors"); err != nil {
		return nil, err
	}
	return vs, nil
}

// EncodeMonitor writes a monitor snapshot: space, configuration
// (schedule, weights, unknown mode, detection options), the vector
// history, the lower-triangular Φ values bit for bit, and the ingest
// statistics.
func EncodeMonitor(w io.Writer, st core.MonitorState) error {
	if err := writeHeader(w, kindMonitor); err != nil {
		return err
	}
	if err := writeFrame(w, encodeSpace(st.Space)); err != nil {
		return err
	}

	var cfg enc
	encodeSchedule(&cfg, st.Schedule)
	if st.Weights != nil {
		cfg.u8(1)
		cfg.u32(uint32(len(st.Weights)))
		for _, wt := range st.Weights {
			cfg.f64(wt)
		}
	} else {
		cfg.u8(0)
	}
	cfg.u8(uint8(st.Mode))
	cfg.i64(int64(st.Detect.Window))
	cfg.f64(st.Detect.MinDrop)
	cfg.u8(uint8(st.Detect.Mode))
	cfg.i64(int64(st.Detect.Cooldown))
	if err := writeFrame(w, cfg.buf); err != nil {
		return err
	}

	if err := writeFrame(w, encodeVectors(st.Space, st.Vectors)); err != nil {
		return err
	}

	var sim enc
	sim.u32(uint32(len(st.Sim)))
	for _, row := range st.Sim {
		for _, phi := range row {
			sim.f64(phi)
		}
	}
	if err := writeFrame(w, sim.buf); err != nil {
		return err
	}

	var stats enc
	stats.u64(st.Appends)
	stats.u64(st.Events)
	stats.i64(int64(st.TotalIngest))
	stats.i64(int64(st.LastIngest))
	stats.i64(int64(st.LastEvent))
	if st.HasEvent {
		stats.u8(1)
	} else {
		stats.u8(0)
	}
	if err := writeFrame(w, stats.buf); err != nil {
		return err
	}

	// Trailing window frame: the sliding-window bound and the eviction
	// count.
	var win enc
	win.i64(int64(st.Window))
	win.u64(st.Evictions)
	return writeFrame(w, win.buf)
}

// DecodeMonitor reads a monitor snapshot written by EncodeMonitor, at
// this version or at version 2. The returned state passes core.RestoreMonitor's invariants unless the
// snapshot was corrupted in a way framing cannot catch; callers restore
// with core.RestoreMonitor, which re-validates.
func DecodeMonitor(r io.Reader) (core.MonitorState, error) {
	var st core.MonitorState
	kind, version, err := readHeader(r)
	if err != nil {
		return st, err
	}
	if kind != kindMonitor {
		return st, corrupt("header", "kind %d is not a monitor snapshot", kind)
	}
	payload, err := readFrame(r, "space")
	if err != nil {
		return st, err
	}
	space, numSites, err := decodeSpace(payload)
	if err != nil {
		return st, err
	}
	st.Space = space

	payload, err = readFrame(r, "config")
	if err != nil {
		return st, err
	}
	d := &dec{buf: payload}
	st.Schedule = decodeSchedule(d)
	if d.u8() == 1 {
		st.Weights = make([]float64, d.count(8))
		for i := range st.Weights {
			st.Weights[i] = d.f64()
		}
	}
	st.Mode = core.UnknownMode(d.u8())
	st.Detect.Window = int(d.i64())
	st.Detect.MinDrop = d.f64()
	st.Detect.Mode = core.UnknownMode(d.u8())
	st.Detect.Cooldown = int(d.i64())
	if err := d.done("config"); err != nil {
		return st, err
	}
	if !st.Mode.Valid() || !st.Detect.Mode.Valid() {
		return st, corrupt("config", "invalid unknown-mode %d/%d", int(st.Mode), int(st.Detect.Mode))
	}

	payload, err = readFrame(r, "vectors")
	if err != nil {
		return st, err
	}
	st.Vectors, err = decodeVectors(payload, space, numSites)
	if err != nil {
		return st, err
	}

	payload, err = readFrame(r, "sim")
	if err != nil {
		return st, err
	}
	d = &dec{buf: payload}
	rows := int(d.u32())
	if !d.bad && rows != len(st.Vectors) {
		return st, corrupt("sim", "%d rows for %d vectors", rows, len(st.Vectors))
	}
	// Row i holds i values: refuse a triangle the payload cannot hold
	// before allocating it.
	if !d.fit(rows*(rows-1)/2, 8) {
		return st, corrupt("sim", "truncated payload")
	}
	st.Sim = make([][]float64, rows)
	for i := 0; i < rows; i++ {
		row := make([]float64, i)
		for j := 0; j < i; j++ {
			row[j] = d.f64()
		}
		st.Sim[i] = row
	}
	if err := d.done("sim"); err != nil {
		return st, err
	}

	payload, err = readFrame(r, "stats")
	if err != nil {
		return st, err
	}
	d = &dec{buf: payload}
	st.Appends = d.u64()
	st.Events = d.u64()
	st.TotalIngest = timeDuration(d.i64())
	st.LastIngest = timeDuration(d.i64())
	st.LastEvent = timeline.Epoch(d.i64())
	st.HasEvent = d.u8() == 1
	if err := d.done("stats"); err != nil {
		return st, err
	}

	payload, err = readFrame(r, "window")
	if err != nil {
		return st, err
	}
	d = &dec{buf: payload}
	st.Window = int(d.i64())
	st.Evictions = d.u64()
	if version == 2 {
		// Version 2 went on with the live engine's sweep configuration
		// (max clusters, min members, step, linkage) and a flag that, when
		// 1, precedes its dendrogram: a merge count and 16 bytes per
		// merge. The engine now always runs the default sweep and
		// re-clusters after a restore, so the tail is checked for shape
		// and discarded.
		d.take(8 + 8 + 8 + 1)
		if d.u8() == 1 {
			d.take(16 * d.count(16))
		}
	}
	if err := d.done("window"); err != nil {
		return st, err
	}
	if st.Window < 0 {
		return st, corrupt("window", "negative window %d", st.Window)
	}
	return st, nil
}

package snapshot

import (
	"encoding/binary"
	"io"

	"fenrir/internal/core"
	"fenrir/internal/timeline"
)

// decodeSpace reads the space section: the network universe in row
// order, then the site alphabet in interning order, interned again in
// that order so every persisted int32 assignment decodes to the label
// it was encoded from.
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

// decodeSchedule reads a schedule written as (start unix-nanos,
// interval, length). The start instant round-trips exactly; its
// wall-clock zone is normalized to UTC.
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

// decodeVectors reads the observation history: a count and a width,
// then per vector its epoch and its raw interned assignment row.
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
//
// The snapshot streams to w through one buffer of writeBufSize bytes:
// each frame's length is computed from the state before its payload,
// vectors and Φ rows are written in place a row at a time, and the CRC
// is folded in as the bytes pass. Encoding allocates that buffer and a
// copy of the site list, whatever the window. The first error w returns
// ends the encoding; nothing is written after it.
func EncodeMonitor(w io.Writer, st core.MonitorState) error {
	_, err := encodeMonitor(w, st)
	return err
}

// encodeMonitor is EncodeMonitor, returning the bytes written.
func encodeMonitor(w io.Writer, st core.MonitorState) (int, error) {
	fw := newFrameWriter(w, kindMonitor)

	// Space: the network universe in row order, then the interned site
	// alphabet in interning order. Restoring interns the sites in the
	// same order, so every persisted int32 assignment decodes to the
	// same label it encoded from.
	space, sites := st.Space, st.Space.Sites()
	nets := space.NumNetworks()
	size := 4 + 4
	for i := 0; i < nets; i++ {
		size += 4 + len(space.Network(i))
	}
	for _, site := range sites {
		size += 4 + len(site)
	}
	fw.begin(size)
	fw.u32(uint32(nets))
	for i := 0; i < nets; i++ {
		fw.str(space.Network(i))
	}
	fw.u32(uint32(len(sites)))
	for _, site := range sites {
		fw.str(site)
	}
	fw.end()

	// Config: the schedule's start, interval and length, the weights
	// behind a presence flag, the unknown mode and the detection options.
	size = 3*8 + 1 + 1 + 8 + 8 + 1 + 8
	if st.Weights != nil {
		size += 4 + 8*len(st.Weights)
	}
	fw.begin(size)
	fw.i64(st.Schedule.Start.UnixNano())
	fw.i64(int64(st.Schedule.Interval))
	fw.i64(int64(st.Schedule.N))
	if st.Weights != nil {
		fw.u8(1)
		fw.u32(uint32(len(st.Weights)))
		fw.f64s(st.Weights)
	} else {
		fw.u8(0)
	}
	fw.u8(uint8(st.Mode))
	fw.i64(int64(st.Detect.Window))
	fw.f64(st.Detect.MinDrop)
	fw.u8(uint8(st.Detect.Mode))
	fw.i64(int64(st.Detect.Cooldown))
	fw.end()

	// Vectors: count and width, then per vector its epoch and its raw
	// interned assignment row.
	fw.begin(8 + len(st.Vectors)*(8+4*nets))
	fw.u32(uint32(len(st.Vectors)))
	fw.u32(uint32(nets))
	for _, v := range st.Vectors {
		fw.i64(int64(v.T))
		fw.assignments(v, nets)
	}
	fw.end()

	// Sim: the row count, then row i's i values of Φ against each
	// earlier vector.
	size = 4
	for _, row := range st.Sim {
		size += 8 * len(row)
	}
	fw.begin(size)
	fw.u32(uint32(len(st.Sim)))
	for _, row := range st.Sim {
		fw.f64s(row)
	}
	fw.end()

	// Stats: the append and event counts, the ingest times and the last
	// event.
	fw.begin(5*8 + 1)
	fw.u64(st.Appends)
	fw.u64(st.Events)
	fw.i64(int64(st.TotalIngest))
	fw.i64(int64(st.LastIngest))
	fw.i64(int64(st.LastEvent))
	if st.HasEvent {
		fw.u8(1)
	} else {
		fw.u8(0)
	}
	fw.end()

	// Trailing window frame: the sliding-window bound and the eviction
	// count.
	fw.begin(16)
	fw.i64(int64(st.Window))
	fw.u64(st.Evictions)
	fw.end()
	return fw.close()
}

// assignments writes a vector's interned assignment row in place, as
// many networks per pass as the buffer holds.
func (fw *frameWriter) assignments(v *core.Vector, width int) {
	for n := 0; n < width && fw.room(4); {
		for end := min(width, n+(cap(fw.buf)-len(fw.buf))/4); n < end; n++ {
			fw.buf = binary.LittleEndian.AppendUint32(fw.buf, uint32(v.Get(n)))
		}
	}
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

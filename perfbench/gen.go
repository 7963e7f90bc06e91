package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"fenrir/internal/core"
	"fenrir/internal/rng"
	"fenrir/internal/serve"
	"fenrir/internal/snapshot"
	"fenrir/internal/timeline"
)

// The routing model behind every workload: each network sits in the
// catchment its current mode gives it, a few cells flip to a random site,
// 30% of cells are unobserved, and every shiftEvery epochs routing moves
// to another of numModes recurring modes. Only the seed varies between
// runs, so the amount of work per op stays the same while the data does
// not.
const (
	unknownShare = 0.30
	flipShare    = 0.02
	shiftEvery   = 10
	numModes     = 4
)

var epochStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

const epochInterval = 240 * time.Second

// routingModel emits one network-to-site assignment per epoch; -1 marks
// an unobserved network.
type routingModel struct {
	src   *rng.Source
	sites int
	modes [][]int16
	cur   int
	epoch int
}

func newRoutingModel(src *rng.Source, networks, sites int) *routingModel {
	m := &routingModel{src: src, sites: sites, modes: make([][]int16, numModes)}
	for k := range m.modes {
		m.modes[k] = make([]int16, networks)
		for n := range m.modes[k] {
			m.modes[k][n] = int16(src.Intn(sites))
		}
	}
	return m
}

func (m *routingModel) next() []int16 {
	if m.epoch > 0 && m.epoch%shiftEvery == 0 {
		m.cur = (m.cur + 1 + m.src.Intn(numModes-1)) % numModes
	}
	m.epoch++
	out := make([]int16, len(m.modes[m.cur]))
	for n, s := range m.modes[m.cur] {
		switch {
		case m.src.Bool(unknownShare):
			out[n] = -1
		case m.src.Bool(flipShare):
			out[n] = int16(m.src.Intn(m.sites))
		default:
			out[n] = s
		}
	}
	return out
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return out
}

// batchInput is a batch workload's generated observations, before the
// program sees them.
type batchInput struct {
	nets, sites []string
	cells       [][]int16 // [epoch][network] site index, -1 = unknown
}

func genBatch(seed uint64, sh batchShape) batchInput {
	m := newRoutingModel(rng.New(seed).Split("batch"), sh.networks, sh.sites)
	in := batchInput{nets: names("n", sh.networks), sites: names("s", sh.sites), cells: make([][]int16, sh.epochs)}
	for t := range in.cells {
		in.cells[t] = m.next()
	}
	return in
}

// series builds the Series the pipeline analyses.
func (in batchInput) series() *core.Series {
	space := core.NewSpace(in.nets)
	vs := make([]*core.Vector, len(in.cells))
	for t, row := range in.cells {
		vs[t] = vectorIn(space, int64(t), in.sites, row)
	}
	return core.NewSeries(space, timeline.NewSchedule(epochStart, epochInterval, len(in.cells)), vs, nil)
}

func vectorIn(space *core.Space, epoch int64, sites []string, cells []int16) *core.Vector {
	v := space.NewVector(timeline.Epoch(epoch))
	for n, s := range cells {
		if s >= 0 {
			v.Set(n, sites[s])
		}
	}
	return v
}

// event is one request of an open-loop schedule: an ingest POST or a
// /mode read, due at an offset from the start of the measured phase.
type event struct {
	due    time.Duration
	tenant int
	query  bool
	epoch  int64
	cells  []int16
	body   []byte
	want   int // the correct HTTP status
}

// stream is a serve workload's generated input: the tenants, their spec,
// any pre-filled snapshots, and the request schedule.
type stream struct {
	names   []string
	spec    serve.TenantSpec // every tenant of a workload shares one universe
	sites   []string
	prefill [][]byte // per-tenant snapshot bytes, nil when tenants are created
	window  int      // the daemon's -window (0 = unbounded)
	events  []event
}

func genServe(seed uint64, sh serveShape, seconds time.Duration) *stream {
	src := rng.New(seed).Split("serve")
	st := &stream{
		names:  names("t", sh.tenants),
		sites:  names("s", sh.sites),
		window: sh.window,
		spec: serve.TenantSpec{
			Networks: names("n", sh.networks), Start: epochStart,
			IntervalSeconds: int(epochInterval / time.Second), Window: sh.window,
		},
	}
	models := make([]*routingModel, sh.tenants)
	next := make([]int64, sh.tenants) // next epoch to send per tenant
	last := make([][]int16, sh.tenants)
	for t := range models {
		models[t] = newRoutingModel(src.Split(st.names[t]), sh.networks, sh.sites)
	}
	if sh.prefill {
		st.prefill = make([][]byte, sh.tenants)
		for t := range models {
			mon := newReplica(st.spec)
			for e := 0; e < sh.window; e++ {
				last[t] = models[t].next()
				if _, _, err := mon.Append(vectorIn(mon.Space(), int64(e), st.sites, last[t])); err != nil {
					panic(err) // epochs are generated in order
				}
			}
			var buf bytes.Buffer
			if err := snapshot.EncodeMonitor(&buf, mon.State()); err != nil {
				panic(err)
			}
			st.prefill[t] = buf.Bytes()
			next[t] = int64(sh.window)
		}
	}
	ingests := int(sh.ingestRate * seconds.Seconds())
	queries := int(sh.queryRate * seconds.Seconds())
	for i, q := 0, 0; i < ingests || q < queries; {
		dueI := time.Duration(float64(i) / sh.ingestRate * float64(time.Second))
		dueQ := time.Duration(float64(q) / sh.queryRate * float64(time.Second))
		if i < ingests && (q >= queries || dueI <= dueQ) {
			t := i % sh.tenants
			ev := event{due: dueI, tenant: t, epoch: next[t], want: 202}
			// A duplicate or out-of-order epoch needs two accepted epochs
			// before it; the daemon's correct verdict is 400.
			if sh.badShare > 0 && next[t] >= 2 && src.Bool(sh.badShare) {
				ev.epoch, ev.want = next[t]-1-int64(src.Intn(2)), 400
				ev.cells = last[t]
			} else {
				ev.cells = models[t].next()
				last[t] = ev.cells
				next[t]++
			}
			ev.body = obsBody(ev.epoch, st.spec.Networks, st.sites, ev.cells)
			st.events = append(st.events, ev)
			i++
		} else {
			st.events = append(st.events, event{due: dueQ, tenant: q % sh.tenants, query: true, want: 200})
			q++
		}
	}
	return st
}

// streamFromBatch turns a batch input into one tenant's observation
// stream spread evenly over span, with a /mode read every readEvery
// epochs: the serving path profiled on a batch workload's data.
func streamFromBatch(in batchInput, span time.Duration) *stream {
	const readEvery = 64
	st := &stream{
		names: []string{"batch"},
		sites: in.sites,
		spec: serve.TenantSpec{
			Networks: in.nets, Start: epochStart, IntervalSeconds: int(epochInterval / time.Second),
		},
	}
	step := span / time.Duration(len(in.cells)+1)
	for t, row := range in.cells {
		due := time.Duration(t) * step
		st.events = append(st.events, event{
			due: due, epoch: int64(t), cells: row, want: 202,
			body: obsBody(int64(t), in.nets, in.sites, row),
		})
		if (t+1)%readEvery == 0 {
			st.events = append(st.events, event{due: due + step/2, query: true, want: 200})
		}
	}
	return st
}

// obsBody renders the ingest body the daemon decodes into serve.Observation.
func obsBody(epoch int64, nets, sites []string, cells []int16) []byte {
	var b bytes.Buffer
	b.WriteString(`{"epoch":`)
	b.WriteString(strconv.FormatInt(epoch, 10))
	b.WriteString(`,"sites":{`)
	first := true
	for n, s := range cells {
		if s < 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%q:%q", nets[n], sites[s])
	}
	b.WriteString("}}")
	return b.Bytes()
}

// newReplica builds the monitor the daemon builds for spec (serve's
// monitorFromSpec, for the fields the benchmark sets), so its state can be
// compared with the daemon's answers.
func newReplica(spec serve.TenantSpec) *core.Monitor {
	return core.NewMonitorOpts(core.NewSpace(spec.Networks),
		timeline.NewSchedule(spec.Start.UTC(), time.Duration(spec.IntervalSeconds)*time.Second, 1<<20),
		core.MonitorOptions{Mode: core.PessimisticUnknown, Detect: core.DefaultDetectOptions(), Window: spec.Window})
}

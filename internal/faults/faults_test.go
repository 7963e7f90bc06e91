package faults

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"fenrir/internal/obs"
)

func TestZeroProfileYieldsNilInjector(t *testing.T) {
	if inj := New(Profile{}, 7, nil); inj != nil {
		t.Fatal("zero profile built an injector")
	}
	none, ok := ByName("none")
	if !ok || !none.Zero() {
		t.Fatalf("profile none = %+v ok=%v", none, ok)
	}
	if inj := New(none, 7, nil); inj != nil {
		t.Fatal("profile none built an injector")
	}
}

// TestNilInjectorIsPassThrough pins the byte-identity contract: every
// method on a nil injector must return its input untouched (the same
// slice, not a copy) and report nothing.
func TestNilInjectorIsPassThrough(t *testing.T) {
	var inj *Injector
	b := []byte{1, 2, 3}
	out, drop, dup := inj.Datagram("x", b)
	if &out[0] != &b[0] || drop || dup {
		t.Fatal("nil Datagram not a pass-through")
	}
	if s := inj.Stream("x", b); &s[0] != &b[0] {
		t.Fatal("nil Stream not a pass-through")
	}
	if inj.Blackout("x", 1, 0) {
		t.Fatal("nil Blackout fired")
	}
	if inj.SiteLabel("x", "LAX") != "LAX" {
		t.Fatal("nil SiteLabel changed the label")
	}
	if inj.DelayMs("x") != 0 {
		t.Fatal("nil DelayMs nonzero")
	}
	if inj.Report() != nil {
		t.Fatal("nil Report nonzero")
	}
	// Without a fault layer a backoff grants exactly the engine's
	// zero-fault retries, immediately and unbudgeted.
	zb := inj.NewBackoff("x", 2)
	if !zb.Allow(1) || !zb.Allow(2) || zb.Allow(3) {
		t.Fatal("nil injector's backoff did not grant exactly 2 retries")
	}
	if zb.SpentMs() != 0 {
		t.Fatal("zero-fault backoff spent budget")
	}
	inj.Quarantine("r", 3) // must not panic
	var bo *Backoff
	if bo.Allow(1) {
		t.Fatal("nil backoff allowed a retry")
	}
	if bo.SpentMs() != 0 {
		t.Fatal("nil backoff spent budget")
	}
}

func TestNamedProfiles(t *testing.T) {
	want := []string{"none", "light", "heavy", "blackout", "corrupt"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range want[1:] {
		p, ok := ByName(name)
		if !ok || p.Zero() {
			t.Fatalf("profile %s missing or zero", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown profile resolved")
	}
}

// drive pushes a fixed workload through an injector and returns the
// delivered bytes plus the report, for determinism comparisons.
func drive(inj *Injector) ([]byte, *Report) {
	var out []byte
	payload := []byte("the quick brown fox jumps over the lazy dog")
	for i := 0; i < 400; i++ {
		b, drop, dup := inj.Datagram("dgram", payload)
		if !drop {
			out = append(out, b...)
			if dup {
				out = append(out, b...)
			}
		}
		out = append(out, inj.Stream("stream", payload)...)
		out = append(out, inj.SiteLabel("site", "LAX")...)
		if inj.Blackout("bo", uint64(i%17), i) {
			out = append(out, 'B')
		}
		if inj.DelayMs("delay") > 0 {
			out = append(out, 'D')
		}
	}
	return out, inj.Report()
}

func TestSameSeedSameFaults(t *testing.T) {
	heavy, _ := ByName("heavy")
	out1, rep1 := drive(New(heavy, 1234, nil))
	out2, rep2 := drive(New(heavy, 1234, nil))
	if !bytes.Equal(out1, out2) {
		t.Fatal("same seed produced different fault sequences")
	}
	if !reflect.DeepEqual(rep1.Injected, rep2.Injected) {
		t.Fatalf("same seed, different reports: %v vs %v", rep1.Injected, rep2.Injected)
	}
	out3, _ := drive(New(heavy, 4321, nil))
	if bytes.Equal(out1, out3) {
		t.Fatal("different seeds produced identical fault sequences")
	}
	if rep1.TotalInjected() == 0 {
		t.Fatal("heavy profile injected nothing over 400 rounds")
	}
}

func TestDatagramLossBurstsAndReorder(t *testing.T) {
	prof := Profile{Name: "t", LossStart: 0.2, LossBurstMean: 3}
	inj := New(prof, 5, nil)
	drops := 0
	for i := 0; i < 500; i++ {
		if _, drop, _ := inj.Datagram("d", []byte{byte(i)}); drop {
			drops++
		}
	}
	// With burst losses the drop count must exceed the start rate alone.
	if drops < 100 {
		t.Fatalf("drops = %d, bursts not extending losses", drops)
	}

	// Reorder: with rate 1 the first datagram is held (dropped now), and
	// each later one delivers its predecessor.
	inj = New(Profile{Name: "t", ReorderRate: 1}, 5, nil)
	if _, drop, _ := inj.Datagram("d", []byte{1}); !drop {
		t.Fatal("first datagram under full reorder was delivered")
	}
	out, drop, _ := inj.Datagram("d", []byte{2})
	if drop || len(out) != 1 || out[0] != 1 {
		t.Fatalf("second datagram delivered %v, want held [1]", out)
	}
	out, _, _ = inj.Datagram("d", []byte{3})
	if out[0] != 2 {
		t.Fatalf("third datagram delivered %v, want held [2]", out)
	}
}

func TestStreamCorruptionAndTruncation(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAA}, 256)
	inj := New(Profile{Name: "t", TruncateRate: 1}, 9, nil)
	out := inj.Stream("s", payload)
	if len(out) >= len(payload) {
		t.Fatalf("truncation did not shorten: %d >= %d", len(out), len(payload))
	}
	inj = New(Profile{Name: "t", CorruptRate: 1}, 9, nil)
	out = inj.Stream("s", payload)
	if len(out) != len(payload) {
		t.Fatal("corruption changed the length")
	}
	diff := 0
	for i := range out {
		if out[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
	if payload[0] != 0xAA {
		t.Fatal("corruption mutated the caller's buffer")
	}
}

func TestSiteLabelStuckAndBogus(t *testing.T) {
	inj := New(Profile{Name: "t", BogusSiteRate: 1}, 3, nil)
	if got := inj.SiteLabel("s", "LAX"); got != BogusSite {
		t.Fatalf("bogus rate 1 returned %q", got)
	}
	if got := inj.SiteLabel("s", ""); got != "" {
		t.Fatalf("empty label faulted to %q", got)
	}

	inj = New(Profile{Name: "t", StuckSiteRate: 1}, 3, nil)
	if got := inj.SiteLabel("s", "LAX"); got != "LAX" {
		t.Fatalf("first observation = %q, nothing to be stuck on yet", got)
	}
	if got := inj.SiteLabel("s", "MIA"); got != "LAX" {
		t.Fatalf("stuck rate 1 returned %q, want replayed LAX", got)
	}
}

func TestBlackoutWindowsAreStatelessAndAligned(t *testing.T) {
	prof, _ := ByName("blackout")
	inj := New(prof, 11, nil)
	fired := false
	for e := 0; e < 64; e++ {
		a := inj.Blackout("s", 42, e)
		// Stateless: order and repetition must not matter.
		if b := inj.Blackout("s", 42, e); a != b {
			t.Fatalf("epoch %d: blackout answer changed on re-query", e)
		}
		if a {
			fired = true
			if !inj.Blackout("s", 42, e-e%prof.BlackoutLen) {
				t.Fatalf("epoch %d dark but its window start is not", e)
			}
		}
	}
	// Different entities and substrates decide independently.
	same := true
	for e := 0; e < 64; e++ {
		if inj.Blackout("s", 42, e) != inj.Blackout("s", 43, e) {
			same = false
		}
	}
	if fired && same {
		t.Fatal("two entities share an identical 64-epoch blackout pattern")
	}
}

func TestBackoffBudget(t *testing.T) {
	inj := New(Profile{Name: "t", LossStart: 0.5}, 1, nil)
	b := &Backoff{inj: inj, substrate: "s",
		pol: RetryPolicy{MaxAttempts: 4, BaseBackoffMs: 100, MaxBackoffMs: 150, BudgetMs: 1000}}
	// attempt 1: 100ms, attempt 2: 200→capped 150, attempt 3: capped 150;
	// attempt 4 hits MaxAttempts.
	for i := 1; i <= 3; i++ {
		if !b.Allow(i) {
			t.Fatalf("attempt %d refused inside budget", i)
		}
	}
	if b.Allow(4) {
		t.Fatal("attempt past MaxAttempts allowed")
	}
	if got := b.SpentMs(); got != 400 {
		t.Fatalf("spent = %v ms, want 400", got)
	}

	// Budget exhaustion cuts retries before MaxAttempts.
	b = &Backoff{inj: inj, substrate: "s",
		pol: RetryPolicy{MaxAttempts: 10, BaseBackoffMs: 100, MaxBackoffMs: 100, BudgetMs: 250}}
	allowed := 0
	for i := 1; i <= 9; i++ {
		if b.Allow(i) {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("allowed %d retries on a 250 ms budget of 100 ms steps, want 2", allowed)
	}

	// Under a fault layer every engine runs DefaultRetryPolicy, whatever
	// its zero-fault retry count.
	b = inj.NewBackoff("d", 0)
	if !b.Allow(1) || !b.Allow(2) || b.Allow(3) {
		t.Fatal("fault-layer backoff is not DefaultRetryPolicy's 3 attempts")
	}
	if got := b.SpentMs(); got != 150 {
		t.Fatalf("default policy spent = %v ms, want 150", got)
	}

	rep := inj.Report()
	if rep.Retries["s"] != 5 || rep.Retries["d"] != 2 {
		t.Fatalf("retries recorded = %v, want s:5 d:2", rep.Retries)
	}
}

func TestInjectedErrorMatchesSentinel(t *testing.T) {
	err := &Error{Substrate: "atlas", Kind: "loss"}
	if !errors.Is(err, ErrInjected) {
		t.Fatal("typed error does not match ErrInjected")
	}
	if err.Error() != "faults: injected loss on atlas" {
		t.Fatalf("error text = %q", err.Error())
	}
}

func TestCountersMirrorToRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	inj := New(Profile{Name: "t", LossStart: 1}, 2, reg)
	inj.Datagram("atlas", []byte{1})
	inj.Quarantine("invalid-site", 0) // materialize at zero
	inj.Quarantine("bad-record", 3)
	if got := reg.Counter(`fenrir_faults_injected_total{substrate="atlas",kind="loss"}`).Value(); got != 1 {
		t.Fatalf("injected counter = %d", got)
	}
	if got := reg.Counter(`fenrir_quarantined_total{reason="invalid-site"}`).Value(); got != 0 {
		t.Fatalf("materialized counter = %d, want explicit 0", got)
	}
	if got := reg.Counter(`fenrir_quarantined_total{reason="bad-record"}`).Value(); got != 3 {
		t.Fatalf("quarantine counter = %d", got)
	}
	rep := inj.Report()
	if rep.TotalQuarantined() != 3 || rep.Quarantined["invalid-site"] != 0 {
		t.Fatalf("report quarantine = %+v", rep.Quarantined)
	}
	if rep.String() == "" || (&Report{}).TotalInjected() != 0 {
		t.Fatal("report rendering broke")
	}
	var nilRep *Report
	if nilRep.String() != "faults: none" || nilRep.TotalInjected() != 0 {
		t.Fatal("nil report accessors broke")
	}
}

// TestRepeatFaultAllocatesNothing pins that a fault's counter is resolved
// once per key, not looked up by a formatted name on every event: once
// its key has been seen, an always-losing Datagram and a retry allocate
// nothing, with a registry or without one, and the report and the
// counters still see every call.
func TestRepeatFaultAllocatesNothing(t *testing.T) {
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		inj := New(Profile{Name: "t", LossStart: 1}, 2, reg)
		b := []byte{1}
		event := func() {
			inj.Datagram("atlas", b)
			inj.retry("atlas")
		}
		event()
		if allocs := testing.AllocsPerRun(100, event); allocs != 0 {
			t.Errorf("registry %v: a repeat loss and retry allocate %v times, want 0", reg != nil, allocs)
		}
		// The call above, AllocsPerRun's warm-up call and its 100 runs.
		const want = 102
		rep := inj.Report()
		if rep.Injected["atlas/loss"] != want || rep.Retries["atlas"] != want {
			t.Errorf("registry %v: report %v, want %d losses and retries", reg != nil, rep, want)
		}
		if reg == nil {
			continue
		}
		if got := reg.Counter(`fenrir_faults_injected_total{substrate="atlas",kind="loss"}`).Value(); got != want {
			t.Errorf("loss counter = %d, want %d", got, want)
		}
		if got := reg.Counter(`fenrir_fault_retries_total{substrate="atlas"}`).Value(); got != want {
			t.Errorf("retry counter = %d, want %d", got, want)
		}
	}
}

package udpserve

import (
	"net"
	"sync"
	"testing"
	"time"

	"fenrir/internal/netaddr"
	"fenrir/internal/websim"
	"fenrir/internal/wire"
)

// waitServed waits for the server's answered count to reach want: the
// serve loop counts a query after its response is written, so a client
// can hold the response before the count moves.
func waitServed(srv *Server, want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for srv.Served() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return srv.Served()
}

func echoHandler(q *wire.DNSMessage, _ net.Addr) *wire.DNSMessage {
	return &wire.DNSMessage{
		ID: q.ID, QR: true, AA: true,
		Questions: q.Questions,
		Answers:   []wire.RR{wire.ARecord(q.Questions[0].Name, 60, 0x01020304)},
	}
}

func TestQueryOverRealSocket(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &Client{Timeout: 2 * time.Second, Retries: 1}
	q := &wire.DNSMessage{
		ID:        0x7777,
		Questions: []wire.Question{{Name: "www.example.org", Type: wire.TypeA, Class: wire.ClassIN}},
	}
	resp, err := c.Query(srv.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 0x7777 || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	a, err := wire.AAddr(resp.Answers[0])
	if err != nil || a != 0x01020304 {
		t.Fatalf("A = %x err=%v", a, err)
	}
	if n := waitServed(srv, 1); n != 1 {
		t.Fatalf("served = %d", n)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 20
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			c := &Client{Timeout: 2 * time.Second, Retries: 2}
			q := &wire.DNSMessage{
				ID:        id,
				Questions: []wire.Question{{Name: "x.example", Type: wire.TypeA, Class: wire.ClassIN}},
			}
			resp, err := c.Query(srv.Addr(), q)
			if err != nil {
				errs <- err
				return
			}
			if resp.ID != id {
				errs <- errIDMismatch
			}
		}(uint16(1000 + i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := waitServed(srv, n); got != n {
		t.Fatalf("served = %d, want %d", got, n)
	}
}

var errIDMismatch = &net.AddrError{Err: "id mismatch"}

func TestDroppedQueryTimesOutAndRetries(t *testing.T) {
	drops := 0
	var mu sync.Mutex
	srv, err := Listen("127.0.0.1:0", func(q *wire.DNSMessage, from net.Addr) *wire.DNSMessage {
		mu.Lock()
		defer mu.Unlock()
		if drops < 1 {
			drops++
			return nil // drop the first query
		}
		return echoHandler(q, from)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &Client{Timeout: 300 * time.Millisecond, Retries: 2}
	q := &wire.DNSMessage{ID: 5, Questions: []wire.Question{{Name: "y.example", Type: wire.TypeA, Class: wire.ClassIN}}}
	resp, err := c.Query(srv.Addr(), q)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if resp.ID != 5 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTimeoutWhenServerSilent(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", func(*wire.DNSMessage, net.Addr) *wire.DNSMessage {
		return nil // always drop
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Timeout: 150 * time.Millisecond, Retries: 1}
	q := &wire.DNSMessage{ID: 9, Questions: []wire.Question{{Name: "z.example", Type: wire.TypeA, Class: wire.ClassIN}}}
	start := time.Now()
	if _, err := c.Query(srv.Addr(), q); err == nil {
		t.Fatal("silent server produced a response")
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("returned after %v; retries not exercised", elapsed)
	}
}

func TestMalformedDatagramGetsFormErr(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid ID bytes, then garbage that cannot parse as DNS.
	if _, err := conn.Write([]byte{0xab, 0xcd, 0xff}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no FORMERR came back: %v", err)
	}
	resp, err := wire.UnmarshalDNS(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 0xabcd || resp.RCode != 1 {
		t.Fatalf("resp = %+v, want FORMERR with echoed ID", resp)
	}
}

func TestCloseIsIdempotentAndStopsServing(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	c := &Client{Timeout: 150 * time.Millisecond}
	q := &wire.DNSMessage{ID: 1, Questions: []wire.Question{{Name: "a.b", Type: wire.TypeA, Class: wire.ClassIN}}}
	if _, err := c.Query(srv.Addr(), q); err == nil {
		t.Fatal("closed server answered")
	}
}

// TestServedCounterConcurrentWithClose hammers Served from readers while
// clients drive the serve loop and Close lands mid-flight — the shape that
// makes a mutex-free counter worth having and that the race detector
// checks (run with -race; see the Makefile race target).
func TestServedCounterConcurrentWithClose(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Readers: poll Served until told to stop; values must never regress.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := srv.Served(); n < last {
					t.Error("served counter went backwards")
					return
				} else {
					last = n
				}
			}
		}()
	}

	// Clients: fire queries concurrently; some may fail once Close lands.
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			cl := &Client{Timeout: 200 * time.Millisecond}
			q := &wire.DNSMessage{
				ID:        id,
				Questions: []wire.Question{{Name: "r.example", Type: wire.TypeA, Class: wire.ClassIN}},
			}
			for i := 0; i < 10; i++ {
				_, _ = cl.Query(srv.Addr(), q)
			}
		}(uint16(3000 + c))
	}

	time.Sleep(50 * time.Millisecond)
	// Concurrent double Close while traffic is in flight.
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			if err := srv.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	close(stop)
	wg.Wait()
	if srv.Served() < 0 {
		t.Fatal("impossible served count")
	}
}

// TestWebsimOverRealUDP serves a websim website handler on a real socket:
// the full ECS request path — encode, kernel, decode, policy, answer —
// across an actual UDP round trip.
func TestWebsimOverRealUDP(t *testing.T) {
	pol := websim.NewGeoPolicy(1, func(p netaddr.Prefix) (float64, float64, bool) {
		return 0, float64(p.Addr >> 24), true
	}, 1)
	pol.AddSite("west", netaddr.MustParseAddr("198.51.100.1"), 0, 10)
	pol.AddSite("east", netaddr.MustParseAddr("198.51.100.2"), 0, 120)
	site := &websim.Website{Hostname: "www.example.org", Policy: pol}
	inner := site.Handler()

	srv, err := Listen("127.0.0.1:0", func(q *wire.DNSMessage, _ net.Addr) *wire.DNSMessage {
		return inner(q, "", 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := &Client{Timeout: 2 * time.Second, Retries: 1}
	q := &wire.DNSMessage{
		ID:        42,
		Questions: []wire.Question{{Name: "www.example.org", Type: wire.TypeA, Class: wire.ClassIN}},
		Additional: []wire.RR{wire.OPTRecord(4096, wire.ClientSubnet{
			Addr: uint32(netaddr.MustParseAddr("110.0.0.0")), SourcePrefixLen: 24,
		}.Option())},
	}
	resp, err := c.Query(srv.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	a, err := wire.AAddr(resp.Answers[0])
	if err != nil || netaddr.Addr(a) != netaddr.MustParseAddr("198.51.100.2") {
		t.Fatalf("ECS steering over real UDP failed: %v err=%v", a, err)
	}
}

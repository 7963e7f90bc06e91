// Command serveload drives a running fenrir daemon with a sustained
// multi-tenant ingest load and reports throughput and client-observed
// admission latency as bench2json.sh-shaped JSON rows, one per line.
// Each row records the load generator's GOMAXPROCS and CPU count;
// scripts/serve_load.sh starts it beside the daemon on one host, in
// one environment, so they are the daemon's too.
//
// Each of -writers workers owns a disjoint slice of the -tenants fleet
// and walks it epoch by epoch, so every tenant sees a strictly ordered
// stream while the daemon as a whole absorbs W concurrent producers.
// 429 backpressure retries the same epoch after a short pause; any
// other non-202 status fails the run. After the write phase the tool
// polls /status until every accepted observation is appended, then
// asserts none were lost.
//
//	serveload -url http://127.0.0.1:8080 -tenants 1024 -epochs 16 -writers 8
//
// -prefix puts a stem before each row name (default none), letting the
// same load shape record differently-purposed rows — the
// history-overhead A/B uses -prefix history-overhead.
//
// Used by scripts/serve_load.sh to record tenant-scale and
// history-overhead rows into BENCH_serve.json.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	url := flag.String("url", "", "daemon base URL (required)")
	tenants := flag.Int("tenants", 1024, "number of tenants to create and feed")
	epochs := flag.Int("epochs", 16, "observations per tenant")
	writers := flag.Int("writers", 8, "concurrent producer workers")
	networks := flag.Int("networks", 16, "networks per tenant universe")
	label := flag.String("label", "", "row label suffix, e.g. history=on")
	prefix := flag.String("prefix", "", "row name stem, e.g. history-overhead")
	flag.Parse()
	if *url == "" {
		fmt.Fprintln(os.Stderr, "serveload: -url is required")
		os.Exit(2)
	}
	if err := run(*url, *tenants, *epochs, *writers, *networks, *label, *prefix); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
}

func run(base string, tenants, epochs, writers, networks int, label, prefix string) error {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        writers * 2,
		MaxIdleConnsPerHost: writers * 2,
	}}

	nets := make([]string, networks)
	for i := range nets {
		nets[i] = fmt.Sprintf("n%03d", i)
	}
	spec := fmt.Sprintf(`{"networks":[%s],"start":"2026-01-01T00:00:00Z","interval_seconds":240,"epochs":%d}`,
		`"`+strings.Join(nets, `","`)+`"`, epochs+16)

	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("load-%05d", i)
	}

	// Create the fleet with the same worker pool that will feed it.
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < tenants; i += writers {
				code, body, err := doJSON(client, http.MethodPut, base+"/v1/tenants/"+names[i], []byte(spec))
				if err != nil {
					errs[w] = err
					return
				}
				if code != http.StatusCreated {
					errs[w] = fmt.Errorf("create %s: HTTP %d: %s", names[i], code, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Write phase: every worker walks its tenant slice epoch-major, so
	// per-tenant order is strict while the daemon sees `writers`
	// concurrent producers.
	lats := make([][]time.Duration, writers)
	accepted := make([]int, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				body := observation(nets, e)
				for i := w; i < tenants; i += writers {
					url := base + "/v1/tenants/" + names[i] + "/observations"
					for {
						t0 := time.Now()
						code, msg, err := doJSON(client, http.MethodPost, url, body)
						if err != nil {
							errs[w] = err
							return
						}
						if code == http.StatusAccepted {
							lats[w] = append(lats[w], time.Since(t0))
							accepted[w]++
							break
						}
						if code == http.StatusTooManyRequests {
							time.Sleep(2 * time.Millisecond)
							continue
						}
						errs[w] = fmt.Errorf("%s epoch %d: HTTP %d: %s", names[i], e, code, msg)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Settle: admission is synchronous but the append is not; wait for
	// the fleet-wide append counter to cover every accepted observation.
	want := uint64(0)
	for _, n := range accepted {
		want += uint64(n)
	}
	if err := waitAppends(client, base, want); err != nil {
		return err
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) time.Duration {
		return all[int(p*float64(len(all)-1))]
	}
	suffix := fmt.Sprintf("/T=%d", tenants)
	if label != "" {
		suffix = "/" + label + suffix
	}
	emit := func(name string, iters int, nsPerOp float64) {
		fmt.Printf("{\"name\": \"ServeLoad/%s%s\", \"iterations\": %d, \"ns_per_op\": %.0f, \"gomaxprocs\": %d, \"num_cpu\": %d}\n",
			name, suffix, iters, nsPerOp, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if prefix != "" {
		prefix += "-"
	}
	emit(prefix+"ingest-throughput", len(all), float64(wall.Nanoseconds())/float64(len(all)))
	emit(prefix+"admission-p50", len(all), float64(q(0.50).Nanoseconds()))
	emit(prefix+"admission-p90", len(all), float64(q(0.90).Nanoseconds()))
	emit(prefix+"admission-p99", len(all), float64(q(0.99).Nanoseconds()))
	fmt.Fprintf(os.Stderr, "serveload: %d tenants x %d epochs via %d writers in %.2fs (%.0f obs/s)\n",
		tenants, epochs, writers, wall.Seconds(), float64(len(all))/wall.Seconds())
	return nil
}

func observation(nets []string, e int) []byte {
	base := "alpha"
	if (e/8)%2 == 1 {
		base = "beta"
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"epoch":%d,"sites":{`, e)
	sep := ""
	for i, n := range nets {
		if (i+e)%11 == 0 { // rotating hole so unknowns exist
			continue
		}
		site := base
		if i%7 == 0 {
			site = "gamma"
		}
		fmt.Fprintf(&b, `%s"%s":"%s"`, sep, n, site)
		sep = ","
	}
	b.WriteString("}}")
	return b.Bytes()
}

func doJSON(client *http.Client, method, url string, body []byte) (int, string, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	return resp.StatusCode, string(bytes.TrimSpace(msg)), nil
}

// waitAppends polls /status until the fleet-wide append count reaches
// want (every accepted observation became queryable) or times out.
func waitAppends(client *http.Client, base string, want uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	var last uint64
	for time.Now().Before(deadline) {
		code, body, err := doJSON(client, http.MethodGet, base+"/status", nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("/status: HTTP %d", code)
		}
		if _, err := fmt.Sscanf(after(body, `"appends": `), "%d", &last); err == nil && last >= want {
			if last > want {
				return fmt.Errorf("daemon appended %d observations, clients had %d accepted", last, want)
			}
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("daemon appended %d of %d accepted observations before timeout", last, want)
}

func after(s, sep string) string {
	if i := strings.Index(s, sep); i >= 0 {
		return s[i+len(sep):]
	}
	return ""
}

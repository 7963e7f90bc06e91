package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// daemonFlags are the fenrir -serve flags of a workload; dir is the
// snapshot directory (used only by workloads that restore tenants).
func daemonFlags(sh *serveShape, dir string) []string {
	flags := []string{"-serve", "127.0.0.1:0"}
	if sh.window > 0 {
		flags = append(flags, "-window", fmt.Sprint(sh.window))
	}
	if sh.prefill {
		flags = append(flags, "-snapshot-dir", dir, "-snapshot-every", "64")
	}
	return flags
}

// daemon is a running fenrir -serve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logged chan struct{} // closed once stderr is drained
}

// startDaemon execs the daemon and waits for it to print its address.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, logged: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		const marker = "serving api http://"
		for sc.Scan() {
			if i := strings.Index(sc.Text(), marker); i >= 0 {
				a := sc.Text()[i+len(marker):]
				select {
				case addr <- a[:strings.IndexByte(a+" ", ' ')]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // drain after an over-long line
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.logged:
		cmd.Wait() //nolint:errcheck // exited before serving; the error below says so
		return nil, fmt.Errorf("daemon exited before serving")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("daemon did not start within 30s")
	}
}

// stop sends SIGTERM (drain and final checkpoint), then SIGKILL if the
// daemon has not exited within 30s, and waits for it.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	done := make(chan struct{})
	go func() {
		d.cmd.Wait() //nolint:errcheck // exit status after SIGTERM is not a result
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-done
	}
	<-d.logged
	d.cmd.Process = nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// newClient is one keep-alive connection to the daemon.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON GETs url and decodes a 200 response into v.
func getJSON(c *http.Client, url string, v any) error {
	code, body, err := do(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

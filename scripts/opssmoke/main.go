// Command opssmoke is the verify gate's end-to-end check of the ops
// plane: it builds the real benchpark binary, starts `benchpark serve
// --metrics --pprof` on an ephemeral port, scrapes every operations
// endpoint the way a monitoring stack would (liveness, readiness,
// Prometheus text, the JSON ops snapshot, a pprof profile), asserts
// each one's shape, pushes one suite into it with `benchpark push`
// (which must leave its TMPDIR empty), and kills the process. It
// exercises the binary and the flag plumbing, not just the handlers —
// the in-process tests already cover those.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "opssmoke: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	tmp, err := os.MkdirTemp("", "opssmoke-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "benchpark")
	build := exec.Command("go", "build", "-o", bin, "./cmd/benchpark")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fatalf("building benchpark: %v", err)
	}

	srv := exec.Command(bin, "serve",
		"--addr", "127.0.0.1:0",
		"--data", filepath.Join(tmp, "data"),
		"--metrics", "--pprof")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		fatalf("%v", err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		fatalf("starting serve: %v", err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()

	// The announce line carries the ephemeral address:
	//   ==> resultsd serving N results on http://HOST:PORT, MODE
	base, err := awaitAnnounce(stdout)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("    serve is up at %s\n", base)

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, string, http.Header) {
		resp, err := client.Get(base + path)
		if err != nil {
			fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header
	}

	if code, body, _ := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body, _ := get("/readyz"); code != http.StatusOK || body != "ready\n" {
		fatalf("/readyz = %d %q, want 200 ready", code, body)
	}

	code, text, hdr := get("/metrics")
	if code != http.StatusOK {
		fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		fatalf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE resultsd_requests_total counter",
		"resultsd_store_ready 1\n",
		"resultsd_inflight_requests",
		"resultsd_ingest_batches_total 0\n",
	} {
		if !strings.Contains(text, want) {
			fatalf("/metrics lacks %q:\n%s", want, text)
		}
	}
	// The text parser rejects a second TYPE line for a family.
	typed := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if typed[line] {
			fatalf("/metrics repeats %q:\n%s", line, text)
		}
		typed[line] = true
	}

	code, body, _ := get("/debug/ops")
	if code != http.StatusOK {
		fatalf("/debug/ops = %d", code)
	}
	var ops struct {
		Store  map[string]json.RawMessage `json:"store"`
		Routes map[string]json.RawMessage `json:"routes"`
	}
	if err := json.Unmarshal([]byte(body), &ops); err != nil {
		fatalf("/debug/ops is not the ops snapshot: %v\n%s", err, body)
	}
	if string(ops.Store["ready"]) != "true" {
		fatalf("/debug/ops reports an unready store: %s", body)
	}
	// The compaction gauges are there even before the first snapshot:
	// write amplification must be readable from any running server.
	for _, field := range []string{"snapshot_generations", "snapshot_bytes", "compactions", "compaction_bytes_written"} {
		if _, found := ops.Store[field]; !found {
			fatalf("/debug/ops store lacks %q: %s", field, body)
		}
	}
	if _, found := ops.Routes["results"]; !found {
		fatalf("/debug/ops lacks the results route: %s", body)
	}

	if code, _, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		fatalf("/debug/pprof/cmdline = %d with --pprof, want 200", code)
	}

	// A push throws its workspace away, so it must never write it: with
	// TMPDIR pointed at a fresh directory, the only thing `benchpark
	// push` may do there is create and remove its empty scratch root.
	scratch := filepath.Join(tmp, "push-tmp")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	push := exec.Command(bin, "push", "saxpy/openmp", "cts1", base)
	push.Env = append(os.Environ(), "TMPDIR="+scratch)
	if out, err := push.CombinedOutput(); err != nil || !strings.Contains(string(out), "==> pushed 8 results") {
		fatalf("benchpark push: %v\n%s", err, out)
	}
	if left, err := os.ReadDir(scratch); err != nil || len(left) != 0 {
		fatalf("benchpark push left %d entries in TMPDIR (%v)", len(left), err)
	}
	if _, text, _ := get("/metrics"); !strings.Contains(text, "resultsd_ingest_batches_total 1\n") {
		fatalf("/metrics does not count the pushed batch:\n%s", text)
	}

	fmt.Println("    ops plane OK: /healthz /readyz /metrics /debug/ops /debug/pprof, push leaves TMPDIR empty")
}

var announceRE = regexp.MustCompile(`on (http://[^\s,]+)`)

// awaitAnnounce scans serve's stdout for the announce line and
// returns the base URL. A deadline goroutine kills the wait if the
// line never shows up.
func awaitAnnounce(stdout io.Reader) (string, error) {
	type scanResult struct {
		base string
		err  error
	}
	ch := make(chan scanResult, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := announceRE.FindStringSubmatch(sc.Text()); m != nil {
				ch <- scanResult{base: m[1]}
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- scanResult{err: fmt.Errorf("serve exited before announcing its address (scan err: %v)", sc.Err())}
	}()
	select {
	case r := <-ch:
		return r.base, r.err
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("serve did not announce its address within 30s")
	}
}

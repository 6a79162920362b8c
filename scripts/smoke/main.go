// Command smoke is the verify gate's end-to-end check of the real
// benchpark binary: it builds cmd/benchpark once and drives two planes
// with it. It exercises the binary and the flag plumbing, not just the
// handlers — the in-process tests already cover those.
//
// The ops plane: `benchpark serve --pprof` on an ephemeral port, every
// operations endpoint scraped the way a monitoring stack would
// (liveness, readiness, Prometheus text, the JSON ops snapshot, a pprof
// profile) and each one's shape asserted, then one suite pushed into it
// with `benchpark push`, which must leave its TMPDIR empty.
//
// The federation plane: a 4-shard primary and one snapshot-shipping
// follower on ephemeral ports, driven by `benchpark loadtest` (≥100
// simulated federated runners), asserting the contracts the federation
// layer exists for:
//
//   - the follower keeps serving reads WHILE the primary ingests;
//   - once a pass that started after ingest ended has completed with
//     nothing left to apply, the follower's reads are byte-identical to
//     the primary's across every query route;
//   - any primary can be followed: a plain `serve` is a one-shard one.
//
// The 429 + Retry-After contract of an overloaded shard is
// resultsd.TestIngestOverloadMapsTo429's, in process.
//
//	go run ./scripts/smoke
package main

import (
	"bufio"
	"bytes"
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

	"repro/internal/resultshard"
)

// tmp holds the binary and every server's data; running, the servers
// still up. fatalf cleans both up before it exits.
var (
	tmp     string
	running = map[*server]bool{}
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smoke: "+format+"\n", args...)
	for s := range running {
		s.stop()
	}
	os.RemoveAll(tmp)
	os.Exit(1)
}

var httpc = &http.Client{Timeout: 10 * time.Second}

// get fetches base+path and returns status, body and headers.
func get(base, path string) (int, []byte, http.Header) {
	resp, err := httpc.Get(base + path)
	if err != nil {
		fatalf("GET %s%s: %v", base, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("GET %s%s: reading body: %v", base, path, err)
	}
	return resp.StatusCode, body, resp.Header
}

// server is one running `benchpark serve` process.
type server struct {
	cmd  *exec.Cmd
	base string
}

func (s *server) stop() {
	if running[s] {
		delete(running, s)
		s.cmd.Process.Kill()
		s.cmd.Wait()
	}
}

// startServe launches the binary with the given serve arguments and
// waits for the announce line carrying the ephemeral address.
func startServe(bin string, args ...string) *server {
	cmd := exec.Command(bin, append([]string{"serve", "--addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fatalf("%v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("starting serve %v: %v", args, err)
	}
	s := &server{cmd: cmd}
	running[s] = true
	if s.base, err = awaitAnnounce(stdout); err != nil {
		fatalf("serve %v: %v", args, err)
	}
	return s
}

var announceRE = regexp.MustCompile(`on (http://\S+),`)

// awaitAnnounce scans serve's stdout for the announce line
// ("==> resultsd serving N results on http://HOST:PORT, MODE") and
// returns the base URL, draining the pipe afterwards.
func awaitAnnounce(stdout io.Reader) (string, error) {
	type scanResult struct {
		base string
		err  error
	}
	ch := make(chan scanResult, 1)
	//benchlint:ignore goroleak the scan ends when the serve child exits and its stdout closes
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := announceRE.FindStringSubmatch(sc.Text()); m != nil {
				ch <- scanResult{base: m[1]}
				for sc.Scan() { // keep draining so the child never blocks
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

func main() {
	var err error
	if tmp, err = os.MkdirTemp("", "smoke-"); err != nil {
		fatalf("%v", err)
	}
	bin := filepath.Join(tmp, "benchpark")
	build := exec.Command("go", "build", "-o", bin, "./cmd/benchpark")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fatalf("building benchpark: %v", err)
	}
	opsPlane(bin)
	federationPlane(bin)
	os.RemoveAll(tmp)
}

func opsPlane(bin string) {
	srv := startServe(bin, "--data", filepath.Join(tmp, "data"), "--pprof")
	defer srv.stop()
	base := srv.base
	fmt.Printf("    serve is up at %s\n", base)

	if code, body, _ := get(base, "/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body, _ := get(base, "/readyz"); code != http.StatusOK || string(body) != "ready\n" {
		fatalf("/readyz = %d %q, want 200 ready", code, body)
	}

	code, body, hdr := get(base, "/metrics")
	text := string(body)
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

	code, body, _ = get(base, "/debug/ops")
	if code != http.StatusOK {
		fatalf("/debug/ops = %d", code)
	}
	var ops struct {
		Store  map[string]json.RawMessage `json:"store"`
		Routes map[string]json.RawMessage `json:"routes"`
	}
	if err := json.Unmarshal(body, &ops); err != nil {
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

	if code, _, _ := get(base, "/debug/pprof/cmdline"); code != http.StatusOK {
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
	if _, body, _ := get(base, "/metrics"); !strings.Contains(string(body), "resultsd_ingest_batches_total 1\n") {
		fatalf("/metrics does not count the pushed batch:\n%s", body)
	}

	fmt.Println("    ops plane OK: /healthz /readyz /metrics /debug/ops /debug/pprof, push leaves TMPDIR empty")
}

// awaitQuietPass blocks until the follower has completed a pass that
// STARTED after this call and had nothing to apply — everything the
// primary acked before the call is then mirrored. The follower reports
// completed passes only, and the one that completes next may have begun
// before the call, so the wait is for two generations past the current
// one (and a quiet one: a still-ingesting primary keeps it waiting).
func awaitQuietPass(follower *server) resultshard.FollowerStatus {
	status := func() (st resultshard.FollowerStatus) {
		code, body, _ := get(follower.base, "/v1/replica/status")
		if code != http.StatusOK {
			fatalf("/v1/replica/status = %d", code)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			fatalf("/v1/replica/status: %v\n%s", err, body)
		}
		return st
	}
	from := status().Syncs
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := status()
		if st.Synced && st.Syncs >= from+2 && st.LagResults == 0 {
			return st
		}
		if time.Now().After(deadline) {
			fatalf("follower never caught up (waiting for a quiet pass past generation %d): %+v", from+1, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertSameBytes compares primary and follower answers byte for byte.
func assertSameBytes(primary, follower *server, paths ...string) {
	for _, path := range paths {
		pcode, pbody, _ := get(primary.base, path)
		fcode, fbody, _ := get(follower.base, path)
		if pcode != http.StatusOK || fcode != http.StatusOK {
			fatalf("%s: primary %d, follower %d", path, pcode, fcode)
		}
		if !bytes.Equal(pbody, fbody) {
			fatalf("%s: follower bytes diverge from primary\nprimary:  %s\nfollower: %s", path, pbody, fbody)
		}
	}
}

func federationPlane(bin string) {
	// ---- Topology: 4-shard primary + 1 follower ----------------------
	// --shard-queue is sized so the ≤150 in-flight pushes never overflow.
	primary := startServe(bin,
		"--data", filepath.Join(tmp, "primary"),
		"--shards", "4", "--shard-queue", "256")
	defer primary.stop()
	follower := startServe(bin, "--replica-of", primary.base, "--sync-interval", "25ms")
	defer follower.stop()
	fmt.Printf("    primary (4 shards) at %s, follower at %s\n", primary.base, follower.base)

	if code, body, _ := get(primary.base, "/v1/replica/meta"); code != http.StatusOK || !bytes.Contains(body, []byte(`"shards":4`)) {
		fatalf("/v1/replica/meta = %d %s, want 200 with 4 shards", code, body)
	}

	// ---- Loadgen ingest with concurrent follower reads ---------------
	// loadtest exits non-zero unless every batch was acknowledged.
	const runners, batches, results = 120, 6, 5
	lt := exec.Command(bin, "loadtest", primary.base, "--runners", fmt.Sprint(runners),
		"--batches", fmt.Sprint(batches), "--results", fmt.Sprint(results))
	lt.Stdout = os.Stdout
	lt.Stderr = os.Stderr
	if err := lt.Start(); err != nil {
		fatalf("starting loadtest: %v", err)
	}
	ltDone := make(chan error, 1)
	//benchlint:ignore goroleak ends when the loadtest child it waits on exits
	go func() { ltDone <- lt.Wait() }()

	// While the fleet ingests, the follower must answer reads: that is
	// the point of snapshot-shipping replicas. Every read below happens
	// strictly before the loadtest process exits.
	readsDuringIngest := 0
ingest:
	for {
		select {
		case err := <-ltDone:
			if err != nil {
				fatalf("loadtest failed: %v", err)
			}
			break ingest
		default:
			if code, _, _ := get(follower.base, "/v1/systems"); code != http.StatusOK {
				fatalf("follower /v1/systems = %d during ingest, want 200", code)
			}
			if code, _, _ := get(follower.base, "/healthz"); code != http.StatusOK {
				fatalf("follower /healthz = %d during ingest, want 200", code)
			}
			readsDuringIngest++
			time.Sleep(2 * time.Millisecond)
		}
	}
	if readsDuringIngest < 3 {
		fatalf("only %d follower reads completed during ingest; the ingest window was too short to prove concurrent serving", readsDuringIngest)
	}
	fmt.Printf("    follower answered %d reads while the primary ingested\n", readsDuringIngest)

	// ---- A pass begun after ingest ended; reads go byte-identical -----
	st := awaitQuietPass(follower)
	held := 0
	for _, sh := range st.Shards {
		held += sh.Results
	}
	if want := runners * batches * results; held != want || len(st.Shards) != 4 {
		fatalf("caught-up follower mirrors %d results in %d shards, loadtest pushed %d into 4", held, len(st.Shards), want)
	}
	fmt.Printf("    follower caught up (%d results as of pass %d, lag 0)\n", held, st.Syncs)
	if code, _, _ := get(follower.base, "/readyz"); code != http.StatusOK {
		fatalf("synced follower /readyz = %d, want 200", code)
	}
	assertSameBytes(primary, follower,
		"/v1/systems",
		"/v1/series?benchmark=fedbench-00&system=fedsys-000&fom=figure_of_merit",
		"/v1/series?benchmark=fedbench-03&fom=figure_of_merit",
		"/v1/regressions?benchmark=fedbench-01&system=fedsys-001&fom=figure_of_merit")
	fmt.Println("    follower reads are byte-identical to the primary")

	primary.stop()
	follower.stop()

	// ---- Any primary can be followed: a plain serve is one shard -----
	plain := startServe(bin, "--data", filepath.Join(tmp, "plain"))
	defer plain.stop()
	if code, body, _ := get(plain.base, "/v1/replica/meta"); code != http.StatusOK || !bytes.Contains(body, []byte(`"shards":1`)) {
		fatalf("plain serve /v1/replica/meta = %d %s, want 200 with 1 shard", code, body)
	}
	plainFollower := startServe(bin, "--replica-of", plain.base, "--sync-interval", "25ms")
	defer plainFollower.stop()
	small := exec.Command(bin, "loadtest", plain.base, "--runners", "4", "--batches", "2", "--results", "5")
	small.Stderr = os.Stderr
	if err := small.Run(); err != nil {
		fatalf("loadtest against the plain serve failed: %v", err)
	}
	if st := awaitQuietPass(plainFollower); len(st.Shards) != 1 || st.Shards[0].Results != 4*2*5 {
		fatalf("plain follower mirrors %+v, want one shard of %d results", st.Shards, 4*2*5)
	}
	const plainSeries = "/v1/series?benchmark=fedbench-00&system=fedsys-000&fom=figure_of_merit"
	if _, series, _ := get(plain.base, plainSeries); !bytes.Contains(series, []byte(`"value"`)) {
		fatalf("plain serve %s = %s, want the pushed samples", plainSeries, series)
	}
	assertSameBytes(plain, plainFollower, "/v1/systems", plainSeries)
	fmt.Println("    a follower of a plain serve is byte-identical too")

	fmt.Println("    federation plane OK: sharded ingest, live follower reads, generation catch-up, byte-identical replicas of a sharded and a plain primary")
}

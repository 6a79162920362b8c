// Command fedsmoke is the verify gate's end-to-end check of the
// results federation plane: it builds the real benchpark binary,
// boots a 4-shard primary and one snapshot-shipping follower on
// ephemeral ports, drives them with `benchpark loadtest` (≥100
// simulated federated runners), and asserts the contracts the
// federation layer exists for:
//
//   - the follower keeps serving reads WHILE the primary ingests;
//   - once a pass that started after ingest ended has completed with
//     nothing left to apply, the follower's reads are byte-identical to
//     the primary's across every query route;
//   - any primary can be followed: a plain `serve` is a one-shard one;
//   - a shard driven past its bounded queue answers 429 +
//     Retry-After (typed ErrOverloaded) promptly — never a hang.
//
// Like opssmoke it exercises the binary and flag plumbing; the
// in-process federation tests already cover the handlers.
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
	"sync"
	"time"

	"repro/internal/resultshard"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fedsmoke: "+format+"\n", args...)
	os.Exit(1)
}

var httpc = &http.Client{Timeout: 10 * time.Second}

// get fetches base+path and returns status and body.
func get(base, path string) (int, []byte) {
	resp, err := httpc.Get(base + path)
	if err != nil {
		fatalf("GET %s%s: %v", base, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("GET %s%s: reading body: %v", base, path, err)
	}
	return resp.StatusCode, body
}

// server is one running `benchpark serve` process.
type server struct {
	cmd  *exec.Cmd
	base string
}

func (s *server) stop() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
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
	base, err := awaitAnnounce(stdout)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		fatalf("serve %v: %v", args, err)
	}
	return &server{cmd: cmd, base: base}
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

// awaitQuietPass blocks until the follower has completed a pass that
// STARTED after this call and had nothing to apply — everything the
// primary acked before the call is then mirrored. The follower reports
// completed passes only, and the one that completes next may have begun
// before the call, so the wait is for two generations past the current
// one (and a quiet one: a still-ingesting primary keeps it waiting).
func awaitQuietPass(follower *server) resultshard.FollowerStatus {
	status := func() (st resultshard.FollowerStatus) {
		code, body := get(follower.base, "/v1/replica/status")
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
		pcode, pbody := get(primary.base, path)
		fcode, fbody := get(follower.base, path)
		if pcode != http.StatusOK || fcode != http.StatusOK {
			fatalf("%s: primary %d, follower %d", path, pcode, fcode)
		}
		if !bytes.Equal(pbody, fbody) {
			fatalf("%s: follower bytes diverge from primary\nprimary:  %s\nfollower: %s", path, pbody, fbody)
		}
	}
}

func main() {
	tmp, err := os.MkdirTemp("", "fedsmoke-")
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

	// ---- Topology: 4-shard primary + 1 follower ----------------------
	// --shard-slow injects a small per-commit delay so the ingest phase
	// lasts long enough to observe the follower serving reads during it;
	// --shard-queue is sized so the ≤150 in-flight pushes never overflow
	// (the overload drill below uses a separate, deliberately tiny
	// topology).
	primary := startServe(bin,
		"--data", filepath.Join(tmp, "primary"),
		"--shards", "4", "--shard-queue", "256", "--shard-slow", "20ms")
	defer primary.stop()
	follower := startServe(bin, "--replica-of", primary.base, "--sync-interval", "25ms")
	defer follower.stop()
	fmt.Printf("    primary (4 shards) at %s, follower at %s\n", primary.base, follower.base)

	if code, body := get(primary.base, "/v1/replica/meta"); code != http.StatusOK || !bytes.Contains(body, []byte(`"shards":4`)) {
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
			if code, _ := get(follower.base, "/v1/systems"); code != http.StatusOK {
				fatalf("follower /v1/systems = %d during ingest, want 200", code)
			}
			if code, _ := get(follower.base, "/healthz"); code != http.StatusOK {
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
	if code, _ := get(follower.base, "/readyz"); code != http.StatusOK {
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
	if code, body := get(plain.base, "/v1/replica/meta"); code != http.StatusOK || !bytes.Contains(body, []byte(`"shards":1`)) {
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
	if _, series := get(plain.base, plainSeries); !bytes.Contains(series, []byte(`"value"`)) {
		fatalf("plain serve %s = %s, want the pushed samples", plainSeries, series)
	}
	assertSameBytes(plain, plainFollower, "/v1/systems", plainSeries)
	fmt.Println("    a follower of a plain serve is byte-identical too")
	plain.stop()
	plainFollower.stop()

	// ---- Overload drill: full queue answers 429, never hangs ---------
	overloadDrill(bin, tmp)

	fmt.Println("    federation plane OK: sharded ingest, live follower reads, generation catch-up, byte-identical replicas of a sharded and a plain primary, 429 backpressure")
}

// overloadDrill boots a deliberately tiny topology (2 shards, queue
// depth 1, 300ms commits), fires 8 concurrent raw pushes pinned to one
// shard, and asserts the overflow answers are prompt 429s carrying
// Retry-After — the ErrOverloaded contract — rather than a wedge.
func overloadDrill(bin, tmp string) {
	srv := startServe(bin,
		"--data", filepath.Join(tmp, "overload"),
		"--shards", "2", "--shard-queue", "1", "--shard-slow", "300ms")
	defer srv.stop()

	type outcome struct {
		code       int
		retryAfter string
	}
	const posts = 8
	outcomes := make([]outcome, posts)
	var wg sync.WaitGroup
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Same (system, benchmark) pins every push to one shard;
			// distinct keys keep dedup out of the way.
			body := fmt.Sprintf(`{"ingest_key":"overload-%d","results":[{"benchmark":"amg2023","workload":"w","system":"tioga","foms":{"figure_of_merit":1}}]}`, i)
			resp, err := httpc.Post(srv.base+"/v1/results", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				fatalf("overload push %d: %v", i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes[i] = outcome{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fatalf("overloaded shard hung: %d concurrent pushes did not all answer within 10s", posts)
	}

	accepted, overloaded := 0, 0
	for i, o := range outcomes {
		switch o.code {
		case http.StatusOK:
			accepted++
		case http.StatusTooManyRequests:
			if o.retryAfter == "" {
				fatalf("overload push %d: 429 without a Retry-After hint", i)
			}
			overloaded++
		default:
			fatalf("overload push %d = %d, want 200 or 429", i, o.code)
		}
	}
	if accepted == 0 || overloaded == 0 {
		fatalf("overload drill: %d accepted / %d overloaded of %d — the drill needs both outcomes to prove backpressure", accepted, overloaded, posts)
	}
	// The shard must come back once the queue drains: the overload is
	// load shedding, not a terminal state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := httpc.Post(srv.base+"/v1/results", "application/json",
			bytes.NewReader([]byte(`{"ingest_key":"overload-recovery","results":[{"benchmark":"amg2023","workload":"w","system":"tioga","foms":{"figure_of_merit":2}}]}`)))
		if err != nil {
			fatalf("recovery push: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			fatalf("recovery push = %d, want 200 or 429", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			fatalf("shard never recovered from overload")
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("    overload drill: %d accepted, %d refused with 429 + Retry-After, shard recovered\n", accepted, overloaded)
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultsd"
	"repro/internal/resultstore"
)

func startTestResultsd(t *testing.T) (*resultstore.Store, *httptest.Server) {
	t.Helper()
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{
		NoBackgroundCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(resultsd.New(store, nil).Handler())
	t.Cleanup(ts.Close)
	return store, ts
}

func TestRunPushCmd(t *testing.T) {
	store, ts := startTestResultsd(t)
	if err := run([]string{"push", "saxpy/openmp", "cts1", ts.URL}); err != nil {
		t.Fatalf("push: %v", err)
	}
	if store.Len() == 0 {
		t.Fatal("push stored nothing")
	}
	// An identical re-run derives the same content hash: duplicate ack,
	// no double ingest.
	before := store.Len()
	if err := run([]string{"push", "saxpy/openmp", "cts1", ts.URL}); err != nil {
		t.Fatalf("second push: %v", err)
	}
	if store.Len() != before {
		t.Fatalf("duplicate push grew the store: %d -> %d", before, store.Len())
	}
}

func TestRunPushCmdErrors(t *testing.T) {
	if err := run([]string{"push", "saxpy/openmp", "cts1"}); err == nil {
		t.Error("missing server URL should fail")
	}
	if err := run([]string{"push", "nosuchsuite", "cts1", "http://127.0.0.1:1"}); err == nil {
		t.Error("unknown suite should fail")
	}
}

func TestRunHistoryCmd(t *testing.T) {
	_, ts := startTestResultsd(t)
	// Seed a series with a trailing slowdown directly through the API.
	c := resultsd.NewClient(ts.URL)
	for i, v := range []float64{1.0, 1.0, 1.0, 1.0, 2.2} {
		if _, err := c.Push(context.Background(), fmt.Sprintf("seed-%d", i), []metricsdb.Result{{
			Benchmark: "saxpy", System: "cts1", Experiment: "e1",
			FOMs: map[string]float64{"saxpy_time": v},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{"history", ts.URL, "saxpy", "saxpy_time"},
		{"history", ts.URL, "saxpy", "saxpy_time", "--system", "cts1"},
		{"history", ts.URL, "saxpy", "saxpy_time", "--window", "4", "--threshold", "1.5"},
		{"history", ts.URL, "saxpy", "nosuchfom"}, // empty series is not an error
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunHistoryCmdErrors(t *testing.T) {
	for _, args := range [][]string{
		{"history", "http://x", "saxpy"},                          // too few args
		{"history", "http://x", "saxpy", "t", "--window"},         // missing value
		{"history", "http://x", "saxpy", "t", "--window", "1"},    // window < 2
		{"history", "http://x", "saxpy", "t", "--threshold", "0"}, // bad threshold
		{"history", "http://x", "saxpy", "t", "--bogus", "v"},     // unknown flag
		{"history", "http://127.0.0.1:1", "saxpy", "t"},           // unreachable server
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunServeCmdFlagErrors(t *testing.T) {
	// Shard options on one store would be dropped silently; the listen
	// address is unusable so a serve that took them fails, not serves.
	unused := []string{"--addr", "127.0.0.1:99999", "--data", t.TempDir()}
	for _, tc := range []struct {
		args []string
		want string // the error must contain this
	}{
		{[]string{"serve", "--addr"}, ""},         // missing value
		{[]string{"serve", "--data"}, ""},         // missing value
		{[]string{"serve", "unexpected-arg"}, ""}, // unknown argument
		{append([]string{"serve", "--shard-queue", "4"}, unused...), "--shards"},
		{append([]string{"serve", "--shards", "1", "--shard-queue", "4"}, unused...), "--shards"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

// TestServeRefusesAnOldStore: serve on a data directory written in a
// format older than the one this binary writes fails at start-up with
// the store's refusal, naming the file and its format, and never
// listens.
func TestServeRefusesAnOldStore(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "resultstore", "testdata", "snap3-manifests")
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	served := make(chan error, 1)
	go func() { served <- run([]string{"serve", "--addr", "127.0.0.1:0", "--data", dir}) }()
	select {
	case err = <-served:
	case <-time.After(30 * time.Second): // a serve that listened answers until a signal stops it
		t.Fatal("serve on an old store did not return: it is serving")
	}
	for _, want := range []string{"snap-00000001.json", `format "benchpark-snap-3": this binary reads only benchpark-snap-4`} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("serve on an old store returned %v, want an error naming %q", err, want)
		}
	}
}

// TestServeStopsOnSignal: an in-process serve stopped by SIGINT after
// one push returns without error and has closed its store on the way
// out, so the data directory holds one generation and an empty segment
// — the WAL tail folded, as a clean Close does.
func TestServeStopsOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := filepath.Join(t.TempDir(), "data")
	served := make(chan error, 1)
	go func() { served <- run([]string{"serve", "--addr", addr, "--data", dir}) }()
	url := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-served:
			t.Fatalf("serve returned before it served: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve is not answering on %s: %v", addr, err)
		}
	}
	if err := run([]string{"push", "saxpy/openmp", "cts1", url}); err != nil {
		t.Fatalf("push: %v", err)
	}
	// The serve registered for SIGINT before it listened, so the signal
	// reaches it and not the test binary's default handler.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve stopped with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not stop on SIGINT")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs []string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		switch name := e.Name(); {
		case strings.HasPrefix(name, "snap-"):
			snaps = append(snaps, name)
		case strings.HasPrefix(name, "wal-") && info.Size() == 0:
			segs = append(segs, name)
		default:
			t.Errorf("the stopped store left %s (%d bytes)", name, info.Size())
		}
	}
	if len(snaps) != 1 || len(segs) != 1 {
		t.Fatalf("the stopped store left generations %v and empty segments %v, want one of each", snaps, segs)
	}
}

package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultsd"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

func startTestResultsd(t *testing.T) (*resultstore.Store, *httptest.Server) {
	t.Helper()
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{
		Clock:               telemetry.FixedClock{T: time.Unix(1700000000, 0)},
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

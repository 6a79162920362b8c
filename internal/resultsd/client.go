package resultsd

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultshard"
	"repro/internal/telemetry"
)

// Client is a typed client for the resultsd API with context-aware
// retries. Transport failures, 5xx responses and 429 overload
// responses retry (cancelled promptly by the context); other 4xx
// responses are terminal. Retrying POST /v1/results is safe because
// ingest is idempotent under the batch's ingest key — the worst case
// of a retry racing a slow first attempt is a Duplicate ack.
//
// The one retry rule: the wait before retry n+1 is uniform in
// [d, 3d/2), where d is 50ms·2ⁿ or the server's Retry-After hint,
// whichever is longer. Jitter only adds to d, so no retry arrives
// before the hint, and thousands of federated runners told to back off
// at the same moment do not come back in lockstep. When retries are
// exhausted on an overload, the error matches resultshard.ErrOverloaded
// so callers can tell "server shed load" from "server broken".
//
// Pushes of gzipMinBytes or more go over the wire gzip-encoded.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries is the number of re-attempts after the first try;
	// negative means 0. Default (zero value via NewClient): 3.
	MaxRetries int
	// AttemptTimeout bounds each individual HTTP attempt (not the
	// whole retry loop, which the caller's ctx governs). Zero means
	// no per-attempt deadline. A wedged connection then costs one
	// attempt, not the whole push: the deadline fires, the attempt
	// fails as retryable, and the retry loop moves on.
	AttemptTimeout time.Duration
}

// NewClient returns a client with the default retry policy.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, MaxRetries: 3}
}

// retryBase is the wait before the first retry, doubling per attempt,
// and retryDraw draws uniformly from [0, n): package state so that
// tests can shorten the one and fix the other.
var (
	retryBase = 50 * time.Millisecond
	retryDraw = rand.Int63n
)

// retryWait is how long to wait before retry n+1 after the retryable
// failure err: uniform in [d, 3d/2), d = max(retryBase·2ⁿ, Retry-After).
func retryWait(n int, err error) time.Duration {
	d := retryBase << min(n, 30) // capped near 1.7 years, short of overflow
	var ov *resultshard.OverloadError
	if errors.As(err, &ov) && ov.RetryAfter > d {
		d = ov.RetryAfter
	}
	if half := int64(d / 2); half > 0 {
		d += time.Duration(retryDraw(half))
	}
	return d
}

// gzipMinBytes is the payload size below which compression costs more
// than it saves.
const gzipMinBytes = 1 << 10

// gzipWriters holds idle compressors. A gzip.Writer carries ~0.85 MB
// of deflate state — more than a hundred times the batch it squeezes —
// so a push borrows one and Resets it rather than building its own.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// retryableError marks a failure worth re-attempting.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// jsonInto is the decode of every reply that holds no results.
func jsonInto(out any) func([]byte) error {
	return func(data []byte) error { return json.Unmarshal(data, out) }
}

// do runs one API call with the retry policy — body, when there is one,
// is the encoded request and encoding its Content-Encoding — and hands
// the reply's bytes to decode, which must copy what it keeps: the bytes
// are a pooled buffer's.
//
// The whole logical call is ONE span ("rpc:<route>") and ONE
// traceparent: the header is computed once, before the retry loop, so
// every attempt carries the identical trace context — the server sees
// one logical operation whether it took one attempt or five, mirroring
// how the ingest key makes retried POSTs one logical batch. The span
// records the attempt count instead of opening a span per attempt.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body []byte, encoding string, decode func([]byte) error) (err error) {
	u := strings.TrimSuffix(c.BaseURL, "/") + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	ctx, span := telemetry.StartSpan(ctx, "rpc:"+strings.TrimPrefix(path, "/v1/"))
	defer span.End()
	attempts := 0
	defer func() {
		span.SetInt("attempts", attempts)
		if err != nil {
			span.SetError(err)
		}
	}()
	traceparent := ""
	if tc, ok := telemetry.PropagationContext(ctx); ok {
		traceparent = tc.Traceparent()
	}
	retries := max(c.MaxRetries, 0)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if lastErr != nil {
				return fmt.Errorf("resultsd: %w (last attempt: %v)", cerr, lastErr)
			}
			return fmt.Errorf("resultsd: %w", cerr)
		}
		attempts++
		aerr := c.once(ctx, method, u, traceparent, encoding, body, decode)
		if aerr == nil {
			return nil
		}
		var re *retryableError
		if !errors.As(aerr, &re) || attempt >= retries {
			return fmt.Errorf("resultsd: %s %s: %w", method, path, aerr)
		}
		lastErr = aerr
		timer := time.NewTimer(retryWait(attempt, aerr))
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("resultsd: %w (last attempt: %v)", ctx.Err(), lastErr)
		case <-timer.C:
		}
	}
}

// once performs a single HTTP attempt. traceparent and the (possibly
// gzip-encoded) payload come from do so retried attempts share one
// trace context and one set of bytes.
func (c *Client) once(ctx context.Context, method, u, traceparent, encoding string, payload []byte, decode func([]byte) error) error {
	if c.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.AttemptTimeout)
		defer cancel()
	}
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	if traceparent != "" {
		req.Header.Set(telemetry.TraceparentHeader, traceparent)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return &retryableError{err: err}
	}
	defer resp.Body.Close()
	buf := replyBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxIdleReply {
			replyBufs.Put(buf)
		}
	}()
	data, err := readBody(resp, (*buf)[:0])
	if err != nil {
		return err
	}
	*buf = data
	if resp.StatusCode == http.StatusTooManyRequests {
		// Server-side backpressure: reconstruct the typed overload so
		// callers (and the retry loop above) see the Retry-After hint
		// and errors.Is(err, resultshard.ErrOverloaded) holds.
		retryAfter := time.Second
		if v, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && v > 0 {
			retryAfter = time.Duration(v) * time.Second
		}
		return &retryableError{err: &resultshard.OverloadError{Shard: -1, RetryAfter: retryAfter}}
	}
	if resp.StatusCode >= 500 {
		return &retryableError{err: fmt.Errorf("server error %d: %s", resp.StatusCode, apiErrorText(data))}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, apiErrorText(data))
	}
	if err := decode(data); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// replyBufs holds the buffers replies are read into. Every decode copies
// what it keeps out of the bytes, so a reply's buffer goes back once it
// is decoded — unless a replica page grew it past maxIdleReply.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxIdleReply is the largest reply buffer kept for the next call: room
// for a dashboard series of a few thousand points.
const maxIdleReply = 256 << 10

// readBody reads a reply of at most maxIngestBytes into buf's room: in
// one step of the stated size when the server states one, else by
// growing. A longer one is refused, terminally: a retry would read the
// same bytes.
func readBody(resp *http.Response, buf []byte) (data []byte, err error) {
	n := resp.ContentLength
	if n > maxIngestBytes {
		return nil, fmt.Errorf("reply of %d bytes exceeds the %d-byte limit", n, maxIngestBytes)
	}
	if n >= 0 {
		data = slices.Grow(buf, int(n))[:n]
		_, err = io.ReadFull(resp.Body, data)
	} else { // chunked: one byte past the limit tells "at" from "over"
		b := bytes.NewBuffer(buf)
		_, err = b.ReadFrom(io.LimitReader(resp.Body, maxIngestBytes+1))
		data = b.Bytes()
	}
	if err != nil {
		return nil, &retryableError{err: err}
	}
	if len(data) > maxIngestBytes {
		return nil, fmt.Errorf("chunked reply exceeds the %d-byte limit", maxIngestBytes)
	}
	return data, nil
}

// apiErrorText extracts the server's error envelope, falling back to
// the raw body.
func apiErrorText(data []byte) string {
	var e apiError
	if err := json.Unmarshal(data, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

// pushBufs holds the buffers pushes are encoded into before they are
// compressed.
var pushBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodePush renders a push body, compressed when that pays: federated
// batches are redundant JSON that gzip shrinks ~10x, most of the ingest
// bandwidth at fleet scale. It is encoded once, so every attempt sends
// the same bytes, and into bytes of its own: a transport may still be
// reading a request's body after Do returns, so the pooled buffer the
// JSON is appended to is back in the pool before anything is sent.
func encodePush(req *IngestRequest) (body []byte, encoding string, err error) {
	buf := pushBufs.Get().(*[]byte)
	defer pushBufs.Put(buf)
	plain, err := req.appendJSON((*buf)[:0])
	if err != nil {
		return nil, "", fmt.Errorf("resultsd: encoding request: %w", err)
	}
	*buf = plain
	if len(plain) >= gzipMinBytes {
		var out bytes.Buffer
		zw := gzipWriters.Get().(*gzip.Writer)
		zw.Reset(&out)
		_, werr := zw.Write(plain)
		cerr := zw.Close()
		gzipWriters.Put(zw) // closed; the next Reset clears whatever state is left
		if werr == nil && cerr == nil {
			return out.Bytes(), "gzip", nil
		}
	}
	return bytes.Clone(plain), "", nil
}

// Push ingests one idempotent batch of results under the given key.
func (c *Client) Push(ctx context.Context, key string, results []metricsdb.Result) (*IngestResponse, error) {
	body, encoding, err := encodePush(&IngestRequest{IngestKey: key, Results: results})
	if err != nil {
		return nil, err
	}
	var resp IngestResponse
	if err := c.do(ctx, http.MethodPost, "/v1/results", nil, body, encoding, jsonInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// queryFromFilter renders the shared filter parameters.
func queryFromFilter(f metricsdb.Filter) url.Values {
	q := url.Values{}
	set := func(k, v string) {
		if v != "" {
			q.Set(k, v)
		}
	}
	set("benchmark", f.Benchmark)
	set("workload", f.Workload)
	set("system", f.System)
	set("experiment", f.Experiment)
	return q
}

// Series fetches one FOM's time series under a filter.
func (c *Client) Series(ctx context.Context, f metricsdb.Filter, fom string) ([]SeriesPoint, error) {
	q := queryFromFilter(f)
	q.Set("fom", fom)
	var resp SeriesResponse
	err := c.do(ctx, http.MethodGet, "/v1/series", q, nil, "", func(data []byte) error {
		// The server writes every point as {"seq":…, so counting those
		// sizes the slice once; decoding into a nil one would grow it by
		// doubling, twice the answer in garbage. A miscount only costs
		// room.
		if n := bytes.Count(data, []byte(`{"seq":`)); n > 0 {
			resp.Points = make([]SeriesPoint, 0, n)
		}
		return json.Unmarshal(data, &resp)
	})
	if err != nil {
		return nil, err
	}
	return resp.Points, nil
}

// Regressions runs a server-side regression scan. window <= 0 and
// threshold <= 0 use the server defaults.
func (c *Client) Regressions(ctx context.Context, f metricsdb.Filter, fom string, window int, threshold float64) ([]RegressionRecord, error) {
	q := queryFromFilter(f)
	q.Set("fom", fom)
	if window > 0 {
		q.Set("window", strconv.Itoa(window))
	}
	if threshold > 0 {
		q.Set("threshold", strconv.FormatFloat(threshold, 'g', -1, 64))
	}
	var resp RegressionsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/regressions", q, nil, "", jsonInto(&resp)); err != nil {
		return nil, err
	}
	return resp.Regressions, nil
}

// Systems lists the distinct system names with stored results.
func (c *Client) Systems(ctx context.Context) ([]string, error) {
	var resp SystemsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/systems", nil, nil, "", jsonInto(&resp)); err != nil {
		return nil, err
	}
	return resp.Systems, nil
}

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
// responses retry with jittered exponential backoff (cancelled
// promptly by the context); other 4xx responses are terminal.
// Retrying POST /v1/results is safe because ingest is idempotent
// under the batch's ingest key — the worst case of a retry racing a
// slow first attempt is a Duplicate ack.
//
// Backpressure: a 429 from an overloaded shard carries a Retry-After
// header; the client waits (at least) that long before the next
// attempt and, when retries are exhausted, returns an error matching
// resultshard.ErrOverloaded so callers can distinguish "server shed
// load" from "server broken".
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries is the number of re-attempts after the first try;
	// negative means 0. Default (zero value via NewClient): 3.
	MaxRetries int
	// RetryBackoff is the first retry delay, doubling per attempt;
	// <=0 means 50ms.
	RetryBackoff time.Duration
	// Jitter scales each computed retry delay. nil means FullJitter —
	// uniform in [d/2, 3d/2) — which is what keeps thousands of
	// federated runners from retrying in lockstep after a shared
	// overload. Tests (and anything needing byte-identical merged
	// traces) inject NoJitter so retry timing carries no wall-clock
	// randomness.
	Jitter func(time.Duration) time.Duration
	// DisableCompression turns off gzip encoding of push bodies
	// (bodies below gzipMinBytes are never compressed).
	DisableCompression bool
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

// NoJitter is the deterministic jitter policy: the computed backoff is
// used exactly. Inject it wherever retry timing must be reproducible.
func NoJitter(d time.Duration) time.Duration { return d }

// FullJitter is the default policy: uniform in [d/2, 3d/2), so
// synchronized retries de-correlate while the mean delay stays d.
func FullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
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
// the reply's bytes to decode.
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
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	retries := c.MaxRetries
	if retries < 0 {
		retries = 0
	}
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
		// An overloaded server's Retry-After hint floors the delay;
		// jitter then de-correlates the fleet's retries.
		delay := backoff
		var ov *resultshard.OverloadError
		if errors.As(aerr, &ov) && ov.RetryAfter > delay {
			delay = ov.RetryAfter
		}
		delay = c.jitter(delay)
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("resultsd: %w (last attempt: %v)", ctx.Err(), lastErr)
		case <-timer.C:
		}
		backoff *= 2
	}
}

// jitter applies the client's jitter policy (FullJitter by default).
func (c *Client) jitter(d time.Duration) time.Duration {
	if c.Jitter != nil {
		return c.Jitter(d)
	}
	return FullJitter(d)
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
	data, err := readBody(resp)
	if err != nil {
		return err
	}
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

// readBody reads a reply of at most maxIngestBytes: in one allocation
// of the stated size when the server states one, else by growing. A
// longer one is refused, terminally: a retry would read the same bytes.
func readBody(resp *http.Response) (data []byte, err error) {
	n := resp.ContentLength
	if n > maxIngestBytes {
		return nil, fmt.Errorf("reply of %d bytes exceeds the %d-byte limit", n, maxIngestBytes)
	}
	if n >= 0 {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else { // chunked: one byte past the limit tells "at" from "over"
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxIngestBytes+1))
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
func (c *Client) encodePush(req *IngestRequest) (body []byte, encoding string, err error) {
	buf := pushBufs.Get().(*[]byte)
	defer pushBufs.Put(buf)
	plain, err := req.appendJSON((*buf)[:0])
	if err != nil {
		return nil, "", fmt.Errorf("resultsd: encoding request: %w", err)
	}
	*buf = plain
	if len(plain) >= gzipMinBytes && !c.DisableCompression {
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
	body, encoding, err := c.encodePush(&IngestRequest{IngestKey: key, Results: results})
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
	if err := c.do(ctx, http.MethodGet, "/v1/series", q, nil, "", jsonInto(&resp)); err != nil {
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

package resultshard

// The replication protocol, whole: what travels (ReplicaMeta,
// ReplicaDelta), who answers (Source) and the one implementation that
// answers from data (Primary). resultsd's /v1/replica handlers and its
// ReplicaClient are Source's two transports; Follower is its consumer.

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/metricsdb"
)

// ReplicaSchema versions the protocol; a mixed pair refuses at the meta
// pull. 2: a delta is a page, so a follower must keep pulling.
const ReplicaSchema = "benchpark-replica-2"

// replicaPage is the most results one delta carries (~0.8 MB of
// loadgen-shaped ones). A transport with a reply bound may cut a page
// shorter: any prefix of a page is a page.
const replicaPage = 4096

// ReplicaMeta describes the primary's topology to a follower.
type ReplicaMeta struct {
	Schema    string `json:"schema"`
	KeySchema string `json:"key_schema"`
	Shards    int    `json:"shards"`
}

// ReplicaDelta is one page of one shard: the next results after the
// follower's watermark, in Seq order, and the shard's MaxSeq read BEFORE
// them — a mirror at MaxSeq holds all the shard held when the page was
// asked for (Results may run past it under ingest). A MaxSeq below the
// asking mirror's is a different store: shards never move backwards.
type ReplicaDelta struct {
	MaxSeq  int                `json:"max_seq"`
	Results []metricsdb.Result `json:"results,omitempty"`
}

// AppendJSON appends the page as json.Marshal(d) would write it, cut
// short — any prefix of a page is a page — before the first result that
// would take what it appends to limit bytes or past; the first result
// always goes out (ingest bounds one result the same way). It reports
// how many results it wrote.
func (d ReplicaDelta) AppendJSON(dst []byte, limit int) (_ []byte, results int, err error) {
	start, sep := len(dst), `,"results":[`
	dst = strconv.AppendInt(append(dst, `{"max_seq":`...), int64(d.MaxSeq), 10)
	for i := range d.Results {
		before := len(dst)
		if dst, err = metricsdb.AppendResult(append(dst, sep...), &d.Results[i]); err != nil {
			return dst, 0, err
		}
		if i > 0 && len(dst)+len("]}")-start >= limit {
			dst = dst[:before]
			break
		}
		results, sep = i+1, ","
	}
	if results > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}'), results, nil
}

// DecodeReplicaDelta reads a page as AppendJSON writes it.
func DecodeReplicaDelta(dec *metricsdb.Decoder, data []byte) (d ReplicaDelta, err error) {
	err = dec.Document(data, func(name []byte) {
		switch string(name) {
		case "max_seq":
			dec.Int(&d.MaxSeq)
		case "results":
			d.Results = dec.Results(nil)
		default:
			dec.Skip()
		}
	})
	return d, err
}

// Source is where a follower pulls from — a Primary in process, or
// resultsd.ReplicaClient over HTTP — and the seam protocol tests fake.
type Source interface {
	// ReplicaMeta describes the primary's topology. A follower verifies
	// the schema and shard count before pulling deltas.
	ReplicaMeta(ctx context.Context) (ReplicaMeta, error)
	// ReplicaDelta returns one shard's next page after the watermark;
	// afterSeq 0 starts the full snapshot (bootstrap is catch-up from 0).
	ReplicaDelta(ctx context.Context, shard, afterSeq int) (ReplicaDelta, error)
}

// Sharded is anything that reads through a metricsdb.Reader: the Reader
// itself, a *resultstore.Store (one part), a *Router (one per shard).
type Sharded interface{ Parts() []metricsdb.Reader }

// Primary is the Source every Sharded store already is, with no
// replication code of its own: a shard is a part, and a page is that
// part's MaxSeq and its next replicaPage results.
type Primary struct{ Sharded }

func (p Primary) ReplicaMeta(context.Context) (ReplicaMeta, error) {
	return ReplicaMeta{Schema: ReplicaSchema, KeySchema: KeySchema, Shards: len(p.Parts())}, nil
}

func (p Primary) ReplicaDelta(_ context.Context, shard, afterSeq int) (ReplicaDelta, error) {
	parts := p.Parts()
	if shard < 0 || shard >= len(parts) {
		return ReplicaDelta{}, fmt.Errorf("resultshard: no shard %d (have %d)", shard, len(parts))
	}
	d := ReplicaDelta{MaxSeq: parts[shard].MaxSeq()} // before the results: see ReplicaDelta
	d.Results = parts[shard].QueryAfterN(afterSeq, replicaPage)
	return d, nil
}

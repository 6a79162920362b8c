package metricsdb

import (
	"fmt"
	"strconv"
)

// HeadTable is one file of a durable store — a WAL record or a snapshot
// generation — as its results name their series: the file lists each
// distinct head once, in first-use order, as its "heads" member
//
//	"heads":[[benchmark, workload, system, experiment, m], …]
//
// where m indexes the file's "manifests" list, or is -1 for a head
// without one, and each result's "head" is an index into the heads. A
// result's "trace_id" is written only when it differs from the previous
// result's in the file — the first one's from the record's trace ID, or
// from "" in a generation — so a file whose results share one run names
// it once. Nothing on the wire uses the table: there a result is what
// encoding/json writes.
//
// Encoding (HeadTable.AppendRecord, DB.AppendJSONAfter), the table
// gathers the heads as the results are written, and carries the trace
// rule from one page of a file to the next; within one file, the rows a
// table is given come from one DB. Decoding (Decoder.Table,
// Decoder.UseTable), it holds what the file lists. The zero value is an
// empty table.
type HeadTable struct {
	heads     []head
	manifests []string
	ids       []int32        // i+1 at the DB's number for heads[i], 0 at a head not listed
	values    map[head]int   // heads[i] by value
	refs      map[string]int // i+1 by manifests[i], so a head without one finds -1
	last      int            // the index ref returned last
	trace     string         // the previous result's trace ID
}

// maxIdleHeads is the most heads a table of heads given by value keeps
// room for across a Reset: a few sessions' experiments. A wider file's
// table goes with it, so emptying it never costs its size again.
const maxIdleHeads = 64

// next is what a result of head h and trace ID trace is written with in
// t's file — h's index, h added on first use, and the trace ID of the
// result before it — and records trace for the next one. Without a
// table it is -1 and "": the form encoding/json writes. id is the DB's
// number for h, -1 for a head given by value.
func (t *HeadTable) next(h *head, id int32, trace string) (ref int, prev string) {
	if t == nil {
		return -1, ""
	}
	prev, t.trace = t.trace, trace
	return t.ref(h, id), prev
}

// ref is h's index, h added on first use. A DB's rows (id >= 0) are
// looked up by the number the DB gave their head (DB.intern), so no
// string is hashed or compared; heads given by value are keyed by value,
// a run of equal ones compared with the last.
func (t *HeadTable) ref(h *head, id int32) int {
	if id >= 0 && int(id) < len(t.ids) && t.ids[id] > 0 {
		return int(t.ids[id]) - 1
	}
	if id < 0 {
		if t.last < len(t.heads) && t.heads[t.last] == *h {
			return t.last
		}
		if i, ok := t.values[*h]; ok {
			t.last = i
			return i
		}
	}
	if t.refs == nil {
		t.values, t.refs = map[head]int{}, map[string]int{}
	}
	if t.refs[h.Manifest] == 0 && h.Manifest != "" {
		t.manifests = append(t.manifests, h.Manifest)
		t.refs[h.Manifest] = len(t.manifests)
	}
	i := len(t.heads)
	if id >= 0 {
		if grow := int(id) + 1 - len(t.ids); grow > 0 {
			t.ids = append(t.ids, make([]int32, grow)...)
		}
		t.ids[id] = int32(i + 1)
	} else {
		t.values[*h] = i
	}
	t.heads = append(t.heads, *h)
	t.last = i
	return i
}

// Reset empties the table for the next file, keeping none of its
// strings. A table a DB's rows were written through keeps all of its
// storage: it lists that DB's heads, so the next file it writes — a
// store's next generation — names as many again, and emptying it costs
// less than growing it anew. A table of heads given by value keeps its
// storage only while that is small.
func (t *HeadTable) Reset() {
	clear(t.heads)
	clear(t.manifests)
	clear(t.ids)
	clear(t.values)
	clear(t.refs)
	if len(t.heads) > maxIdleHeads && t.ids == nil {
		*t = HeadTable{}
	} else {
		*t = HeadTable{heads: t.heads[:0], manifests: t.manifests[:0], ids: t.ids, values: t.values, refs: t.refs}
	}
}

// AppendRecord appends, each after a comma, the members a file holding
// rs alone writes: its tables, then "results", the first result's trace
// ID compared against trace. t comes empty and is left empty.
func (t *HeadTable) AppendRecord(dst []byte, trace string, rs []Result) ([]byte, error) {
	defer t.Reset()
	for i := range rs {
		h := headOf(&rs[i])
		t.ref(&h, -1)
	}
	t.trace = trace
	return appendResults(append(t.AppendTables(dst), `,"results":`...), rs, t)
}

// AppendTables appends the table as a file's "manifests" and "heads"
// members, each after a comma — nothing for an empty list.
func (t *HeadTable) AppendTables(dst []byte) []byte {
	if len(t.manifests) > 0 {
		dst = append(dst, `,"manifests":`...)
		for i, m := range t.manifests {
			dst = AppendString(append(dst, "[,"[min(i, 1)]), m)
		}
		dst = append(dst, ']')
	}
	if len(t.heads) > 0 {
		dst = append(dst, `,"heads":`...)
		for i, h := range t.heads {
			dst = append(dst, "[,"[min(i, 1)])
			for j, s := range [...]string{h.Benchmark, h.Workload, h.System, h.Experiment} {
				dst = AppendString(append(dst, "[,"[min(j, 1)]), s)
			}
			dst = append(strconv.AppendInt(append(dst, ','), int64(t.refs[h.Manifest]-1), 10), ']')
		}
		dst = append(dst, ']')
	}
	return dst
}

// UseTable makes results decode as members of t's file (see Decoder)
// until the next Reset, the first one's trace ID, unless it names one,
// being trace.
func (d *Decoder) UseTable(t *HeadTable, trace string) { d.table, d.trace = t, trace }

// Table reads the value at the cursor into t when name is one of a
// file's tables — "manifests", or "heads", whose manifest indexes name
// the manifests read before them — and reports whether it was.
func (d *Decoder) Table(t *HeadTable, name []byte) bool {
	switch string(name) {
	case "manifests":
		t.manifests = t.manifests[:0]
		d.Array(func() {
			t.manifests = append(t.manifests, "")
			d.manifestString(&t.manifests[len(t.manifests)-1])
		})
	case "heads":
		t.heads = t.heads[:0]
		d.Array(func() {
			var h head
			n, m := 0, -2
			d.Array(func() {
				if n++; n <= 4 {
					d.name([...]*string{&h.Benchmark, &h.Workload, &h.System, &h.Experiment}[n-1])
				} else {
					d.Int(&m)
				}
			})
			if n != 5 || m < -1 || m >= len(t.manifests) {
				d.Fail(fmt.Errorf("metricsdb: head %d is not four names and one of the file's %d manifests, or -1", len(t.heads), len(t.manifests)))
			} else if m >= 0 {
				h.Manifest = t.manifests[m]
			}
			t.heads = append(t.heads, h)
		})
	default:
		return false
	}
	return true
}

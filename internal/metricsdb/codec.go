package metricsdb

// The one JSON codec for Result. A Result crosses a byte boundary at
// every layer of the results plane — push body, WAL record, snapshot
// generation, replica page — and its shape never changes, so none of
// them needs reflection. Encoding appends to a caller-owned buffer and
// produces byte for byte what encoding/json produces for the same
// value; decoding tokenizes a []byte in place and fills a Result.
// FuzzResultCodec pins both directions against encoding/json, which the
// cold SaveJSON/LoadJSON keep using. The envelopes around results (WAL
// batch, snapshot header, ingest request, replica page, series reply)
// are written and read by their owners with the primitives here, so
// string escaping, float formatting and tokenizing exist once.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string with encoding/json's
// escaping: the short escapes it uses, \u00XX for other controls and
// for <, > and &, U+2028 and U+2029 as \u2028 and \u2029, and \ufffd for
// invalid UTF-8.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		size := 1
		if c < utf8.RuneSelf {
			dst = append(append(dst, s[start:i]...), '\\')
			if j := strings.IndexByte("\"\\\b\f\n\r\t", c); j >= 0 {
				dst = append(dst, `"\bfnrt`[j])
			} else {
				dst = append(dst, 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
		} else {
			var r rune
			switch r, size = utf8.DecodeRuneInString(s[i:]); {
			case r == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			default:
				i += size
				continue
			}
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// AppendFloat appends f as encoding/json formats a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with a
// one-digit exponent unpadded (1e-07 becomes 1e-7). NaN and the
// infinities have no JSON form: an error, and dst comes back unchanged.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("metricsdb: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-2] == '0' && (dst[n-3] == '-' || dst[n-3] == '+') {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// sortedKeys appends m's keys to buf and sorts all of it.
func sortedKeys[V any](buf []string, m map[string]V) []string {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// pair is one member of a FOMs or Meta map, as a DB stores it and as
// the encoder walks it.
type pair[V any] struct {
	name  string
	value V
}

// sortedPairs appends m's members to buf and sorts them by name, as
// encoding/json orders a map's keys: nil for a nil map, buf (empty, not
// nil) for an empty one.
func sortedPairs[V any](buf []pair[V], m map[string]V) []pair[V] {
	if m == nil {
		return nil
	}
	for k, v := range m {
		buf = append(buf, pair[V]{k, v})
	}
	slices.SortFunc(buf, func(a, b pair[V]) int { return strings.Compare(a.name, b.name) })
	return buf
}

// mapOf is the map ps came from: nil for nil pairs.
func mapOf[V any](ps []pair[V]) map[string]V {
	if ps == nil {
		return nil
	}
	m := make(map[string]V, len(ps))
	for _, p := range ps {
		m[p.name] = p.value
	}
	return m
}

// appendPairs appends ps as a JSON object, each value by value.
func appendPairs[V any](dst []byte, ps []pair[V], value func([]byte, V) ([]byte, error)) (_ []byte, err error) {
	dst = append(dst, '{')
	for i, p := range ps {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = value(append(AppendString(dst, p.name), ':'), p.value); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendResult appends r's JSON — the bytes json.Marshal(r) returns. A
// FOM with no JSON form is an error, and dst comes back unchanged.
func AppendResult(dst []byte, r *Result) ([]byte, error) { return appendResult(dst, r, nil) }

// appendResult is AppendResult, or with a table r's form in t's file.
func appendResult(dst []byte, r *Result, t *HeadTable) ([]byte, error) {
	// On the stack, the head too: sorting a few-member map costs no
	// allocation.
	var foms [8]pair[float64]
	var meta [8]pair[string]
	h := headOf(r)
	v := viewOf(r, &h, foms[:0], meta[:0])
	ref, prev := t.next(&h, -1, r.TraceID)
	return appendRow(dst, &v, ref, prev)
}

// appendRow is the one Result encoder, over the sorted pairs a view
// holds — a stored row's, or AppendResult's of a Result. With ref -1 it
// writes what encoding/json does. Otherwise it writes the form a file
// with a table holds: the head as ref, its index there, and the trace
// ID only where it differs from prev, the previous result's.
func appendRow(dst []byte, r *view, ref int, prev string) (_ []byte, err error) {
	start := len(dst)
	dst = strconv.AppendInt(append(dst, `{"seq":`...), int64(r.Seq), 10)
	if ref >= 0 {
		dst = strconv.AppendInt(append(dst, `,"head":`...), int64(ref), 10)
	} else {
		dst = AppendString(append(dst, `,"benchmark":`...), r.Benchmark)
		dst = AppendString(append(dst, `,"workload":`...), r.Workload)
		dst = AppendString(append(dst, `,"system":`...), r.System)
		dst = AppendString(append(dst, `,"experiment":`...), r.Experiment)
	}
	if dst = append(dst, `,"foms":`...); r.FOMs == nil {
		dst = append(dst, "null"...)
	} else if dst, err = appendPairs(dst, r.FOMs, AppendFloat); err != nil {
		return dst[:start], err
	}
	if len(r.Meta) > 0 {
		dst, _ = appendPairs(append(dst, `,"meta":`...), r.Meta, func(dst []byte, s string) ([]byte, error) {
			return AppendString(dst, s), nil
		})
	}
	if ref < 0 && r.Manifest != "" {
		dst = AppendString(append(dst, `,"manifest":`...), r.Manifest)
	}
	if r.TraceID != prev {
		dst = AppendString(append(dst, `,"trace_id":`...), r.TraceID)
	}
	return append(dst, '}'), nil
}

// AppendResults appends the JSON array of rs, null for a nil slice — as
// json.Marshal(rs) — up to the first result AppendResult refuses.
func AppendResults(dst []byte, rs []Result) ([]byte, error) { return appendResults(dst, rs, nil) }

// appendResults is AppendResults, or with a table the results' form in
// t's file.
func appendResults(dst []byte, rs []Result, t *HeadTable) (_ []byte, err error) {
	if rs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := 0; i < len(rs) && err == nil; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, err = appendResult(dst, &rs[i], t)
	}
	return append(dst, ']'), err
}

const (
	// maxDepth is encoding/json's bound on nested containers.
	maxDepth = 10000
	// internCap and internMaxLen bound a Decoder's string table: at most
	// that many names of at most that many bytes each, whatever a client
	// sends. A full table stops growing; later names are plain copies.
	internCap    = 1024
	internMaxLen = 64
)

// Decoder reads JSON values off a []byte, one call per value, in the
// order they appear. Errors are sticky: the first one ends every walk
// and makes every later call a no-op, so a caller decodes a whole
// document and checks End once. It accepts what json.Unmarshal accepts
// for the same target and stores the same values — whitespace, every
// escape, surrogate pairs, invalid UTF-8 as U+FFFD, null leaving its
// target alone (a map: nil), duplicate members with the last winning,
// unknown members skipped but still validated, numbers that do not fit
// their target refused — with one deliberate strictness: member names
// match exactly, where encoding/json also matches them case-folded
// ("Seq", "FOMs"). Everything this package's encoders emit is accepted.
//
// Decoded strings are copies, never views of the input. Benchmark,
// Workload, System and Experiment values and FOM and Meta keys — the
// names a fleet repeats in every result — go through a table the
// Decoder keeps across Resets, so equal names share one allocation; a
// TraceID or a manifest equal to the previous one reuses it, as a
// session's results carry one environment's manifest after another.
// Meta values are never shared. A Decoder is not safe for concurrent
// use.
//
// What a durable store wrote is read with its file's table (see
// HeadTable): after UseTable, a result's "head" is an index into the
// table's heads — an index the table does not hold is an error, and so
// is any result of a file whose table lists no heads, as files written
// before the head table are — and a result without a "trace_id" carries
// the previous one's. Without a table a "head" is skipped as any unknown
// member. A "manifest" is a string, with a table or without.
type Decoder struct {
	data     []byte
	pos      int
	depth    int
	err      error
	scratch  []byte            // the unescaped form of the last escaped string
	names    map[string]string // interned strings, keyed by themselves
	trace    string            // the last TraceID decoded
	manifest string            // the last manifest decoded
	table    *HeadTable        // the file's table, set by UseTable until the next Reset
	// foms and meta are the maps handed back by Recycle, at most
	// maxIdleMaps of each, taken before a new one is made.
	foms []map[string]float64
	meta []map[string]string
}

const (
	// maxIdleMaps is the most maps of each kind a Decoder keeps for
	// reuse: a bulk push's worth of results (resultsd's maxIdleResults).
	maxIdleMaps = 256
	// maxRecycledLen is the most members a recycled map may hold: a
	// larger one is left to the GC, as emptying it would cost its size
	// on every reuse.
	maxRecycledLen = 8
)

// Recycle hands r's maps back to d, which empties them and fills them
// for later Results that need one instead of making new maps. The
// caller must be done with them — a DB that stored r holds copies — and
// r must be their only holder: r keeps only its other fields.
func (d *Decoder) Recycle(r *Result) {
	d.foms = recycle(d.foms, r.FOMs)
	d.meta = recycle(d.meta, r.Meta)
	r.FOMs, r.Meta = nil, nil
}

// recycle adds m, emptied, to the free list unless it is nil, too
// large, or the list is full.
func recycle[V any](free []map[string]V, m map[string]V) []map[string]V {
	if m == nil || len(m) > maxRecycledLen || len(free) >= maxIdleMaps {
		return free
	}
	clear(m)
	return append(free, m)
}

// Reset points the decoder at data and clears its error and its file
// table. The string table carries over.
func (d *Decoder) Reset(data []byte) {
	d.data, d.pos, d.depth, d.err, d.table = data, 0, 0, nil, nil
}

// Offset is the cursor: how many bytes of the input are consumed.
func (d *Decoder) Offset() int { return d.pos }

// Err returns the first error met since Reset.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's error unless it already has one,
// which ends every walk in progress.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
		d.pos = len(d.data) // every read from here on sees the end of input
	}
}

func (d *Decoder) syntax(what string) {
	d.Fail(fmt.Errorf("metricsdb: invalid JSON at byte %d: %s", d.pos, what))
}

// End reports the first error met, or that something other than
// whitespace follows the values decoded.
func (d *Decoder) End() error {
	if d.peek(); d.pos < len(d.data) {
		d.syntax("data after the top-level value")
	}
	return d.err
}

// peek skips whitespace and returns the byte at the cursor, 0 at the
// end of input.
func (d *Decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// keyword consumes word, which must be at the cursor.
func (d *Decoder) keyword(word string) bool {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		d.syntax("expected " + word)
		return false
	}
	d.pos += len(word)
	return true
}

// null consumes a null if one is at the cursor.
func (d *Decoder) null() bool { return d.peek() == 'n' && d.keyword("null") }

// walk consumes a container — open, elements separated by commas,
// close — calling elem with the cursor on each element; elem must
// consume it. A null is consumed as a container with nothing in it.
func (d *Decoder) walk(open, close byte, elem func()) {
	if d.null() {
		return
	}
	if d.peek() != open {
		d.syntax("expected " + string(open))
		return
	}
	if d.depth++; d.depth > maxDepth {
		d.syntax("exceeded max depth")
		return
	}
	d.pos++
	if d.peek() != close {
		for elem(); d.peek() == ','; elem() {
			d.pos++
		}
	}
	if d.peek() != close {
		d.syntax("expected , or " + string(close))
		return
	}
	d.pos++
	d.depth--
}

// Array calls elem for each element of the array at the cursor; elem
// must consume the element. A null is an array of none.
func (d *Decoder) Array(elem func()) { d.walk('[', ']', elem) }

// Object calls member for each member of the object at the cursor with
// its unescaped name, which is valid until the next call on d; member
// must consume the value. A null is an object of none.
func (d *Decoder) Object(member func(name []byte)) {
	d.walk('{', '}', func() {
		name := d.str()
		if d.peek() != ':' {
			d.syntax("expected : after a member name")
			return
		}
		d.pos++
		member(name)
	})
}

// Document decodes data as one object, each member's value read by
// member as with Object, and nothing but whitespace after it.
func (d *Decoder) Document(data []byte, member func(name []byte)) error {
	d.Reset(data)
	d.Object(member)
	return d.End()
}

// Skip consumes the value at the cursor, whatever it is, checking its
// syntax.
func (d *Decoder) Skip() {
	switch d.peek() {
	case '{':
		d.Object(func([]byte) { d.Skip() })
	case '[':
		d.Array(d.Skip)
	case '"':
		d.str()
	case 't':
		d.keyword("true")
	case 'f':
		d.keyword("false")
	default:
		d.number()
	}
}

// number consumes the JSON number at the cursor and returns its text;
// nil for a null, which it consumes too, and after an error.
func (d *Decoder) number() []byte {
	if d.null() {
		return nil
	}
	rest, i := d.data[d.pos:], 0
	one := func(of string) bool { // steps over one byte out of a set, if one is next
		ok := i < len(rest) && strings.IndexByte(of, rest[i]) >= 0
		if ok {
			i++
		}
		return ok
	}
	digits := func() bool { // steps over a run of digits; false if there is none
		from := i
		for i < len(rest) && rest[i]-'0' <= 9 {
			i++
		}
		return i > from
	}
	one("-")
	ok := one("0") || digits()
	if ok && one(".") {
		ok = digits()
	}
	if ok && one("eE") {
		one("+-")
		ok = digits()
	}
	if !ok {
		d.syntax("malformed number")
		return nil
	}
	d.pos += i
	return rest[:i]
}

// Int stores the integer at the cursor in *dst. A number with a
// fraction or an exponent, or outside int's range, is an error.
func (d *Decoder) Int(dst *int) {
	if text := d.number(); text != nil {
		n, err := strconv.Atoi(string(text))
		if err != nil {
			d.syntax("expected an integer")
			return
		}
		*dst = n
	}
}

// Float stores the number at the cursor in *dst; one outside float64's
// range is an error.
func (d *Decoder) Float(dst *float64) {
	if text := d.number(); text != nil {
		f, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			d.syntax("expected a number that fits a float64")
			return
		}
		*dst = f
	}
}

// hex4 reads the XXXX of a \uXXXX escape at data[i:], -1 if it is not
// four hex digits.
func hex4(data []byte, i int) rune {
	if i+4 <= len(data) {
		if r, err := strconv.ParseUint(string(data[i:i+4]), 16, 32); err == nil {
			return rune(r)
		}
	}
	return -1
}

// str consumes the string at the cursor and returns its contents
// unescaped: a view of the input when nothing needed rewriting, else of
// d.scratch. Either is valid until the next call on d.
func (d *Decoder) str() []byte {
	if d.peek() != '"' {
		d.syntax("expected a string")
		return nil
	}
	data, out := d.data, d.scratch[:0]
	for start := d.pos + 1; ; {
		i := start
		for i < len(data) && data[i] >= ' ' && data[i] < utf8.RuneSelf && data[i] != '"' && data[i] != '\\' {
			i++
		}
		if i == len(data) || data[i] < ' ' {
			d.pos = i
			d.syntax("unterminated string or control character in a string")
			return nil
		}
		if data[i] == '"' {
			d.pos = i + 1
			if len(out) == 0 { // no escape so far: every escape adds a byte
				return data[start:i]
			}
			d.scratch = append(out, data[start:i]...)
			return d.scratch
		}
		out = append(out, data[start:i]...)
		if data[i] != '\\' { // not ASCII: copy the rune, U+FFFD if it is not one
			r, size := utf8.DecodeRune(data[i:])
			out = utf8.AppendRune(out, r)
			start = i + size
			continue
		}
		c := byte(0)
		if i+1 < len(data) {
			c = data[i+1]
		}
		start = i + 2
		if j := strings.IndexByte(`"\/bfnrt`, c); j >= 0 {
			out = append(out, "\"\\/\b\f\n\r\t"[j])
			continue
		}
		r := hex4(data, start)
		if c != 'u' || r < 0 {
			d.pos = i
			d.syntax("invalid escape in a string")
			return nil
		}
		start += 4
		if utf16.IsSurrogate(r) { // a pair is one rune; half of one is U+FFFD
			low := rune(-1)
			if bytes.HasPrefix(data[start:], []byte(`\u`)) {
				low = hex4(data, start+2)
			}
			if r = utf16.DecodeRune(r, low); r != utf8.RuneError {
				start += 6
			}
		}
		out = utf8.AppendRune(out, r)
	}
}

// text returns the string at the cursor, false for a null.
func (d *Decoder) text() ([]byte, bool) {
	if d.null() {
		return nil, false
	}
	b := d.str()
	return b, d.err == nil
}

// String stores a copy of the string at the cursor in *dst.
func (d *Decoder) String(dst *string) {
	if b, ok := d.text(); ok {
		*dst = string(b)
	}
}

// Bytes stores the string at the cursor in *dst as String does, but
// in *dst's own room, grown if need be: a caller that keeps its buffer
// reads strings into it without allocating.
func (d *Decoder) Bytes(dst *[]byte) {
	if b, ok := d.text(); ok {
		*dst = append((*dst)[:0], b...)
	}
}

// Null consumes the null at the cursor, if there is one, and reports
// whether there was: what tells a null member from an empty one.
func (d *Decoder) Null() bool { return d.null() }

// DecodeMap fills *m from the object at the cursor as encoding/json
// fills a map: each member adds to the map there — made, with room for
// hint members, if there is none — its value read by value into a zero
// V, and a null makes the map nil. Each member name is copied: the
// caller's decoders keep what they read.
func DecodeMap[V any](d *Decoder, m *map[string]V, hint int, value func(*V)) {
	if d.Null() {
		*m = nil
		return
	}
	if *m == nil {
		*m = make(map[string]V, hint)
	}
	d.Object(func(name []byte) {
		k := string(name) // name is d's until the value is read
		var v V
		value(&v)
		(*m)[k] = v
	})
}

// intern returns b as a string, shared with every equal string the
// table holds or has room for.
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= internMaxLen && len(d.names) < internCap {
		if d.names == nil {
			d.names = map[string]string{}
		}
		d.names[s] = s
	}
	return s
}

// name stores the string at the cursor in *dst, interned.
func (d *Decoder) name(dst *string) {
	if b, ok := d.text(); ok {
		*dst = d.intern(b)
	}
}

// decodeMap fills *m from the object at the cursor as encoding/json
// does: an object adds to the map already there (taking a recycled
// one from free, or making one, if need be), a null makes it nil.
func decodeMap[V any](d *Decoder, m *map[string]V, free *[]map[string]V, value func(*V)) {
	switch d.peek() {
	case 'n':
		*m = nil
	case '{':
		if *m == nil {
			if n := len(*free); n > 0 {
				*m, (*free)[n-1] = (*free)[n-1], nil
				*free = (*free)[:n-1]
			} else {
				*m = map[string]V{}
			}
		}
	}
	d.Object(func(name []byte) {
		k := d.intern(name)
		var v V
		value(&v)
		if d.err == nil {
			(*m)[k] = v
		}
	})
}

// Result fills *r from the object at the cursor; members the input
// does not name keep the values *r came with, but for the trace rule of
// a file (see Decoder). A member Result does not have is skipped: the
// "id" that bodies and pages written before a result's Seq became its
// one identity carry reads as nothing.
func (d *Decoder) Result(r *Result) {
	if d.table != nil {
		if len(d.table.heads) == 0 {
			d.Fail(fmt.Errorf("metricsdb: a result of a file with no head table: this binary reads only files that list their heads"))
			return
		}
		r.TraceID = d.trace
	}
	d.Object(func(name []byte) {
		switch string(name) {
		case "seq":
			d.Int(&r.Seq)
		case "benchmark":
			d.name(&r.Benchmark)
		case "workload":
			d.name(&r.Workload)
		case "system":
			d.name(&r.System)
		case "experiment":
			d.name(&r.Experiment)
		case "foms":
			decodeMap(d, &r.FOMs, &d.foms, d.Float)
		case "meta":
			decodeMap(d, &r.Meta, &d.meta, d.String)
		case "head":
			if d.table == nil {
				d.Skip()
			} else if i := d.index(len(d.table.heads), "head"); d.err == nil {
				h := &d.table.heads[i]
				r.Benchmark, r.Workload, r.System, r.Experiment, r.Manifest = h.Benchmark, h.Workload, h.System, h.Experiment, h.Manifest
			}
		case "manifest":
			d.manifestString(&r.Manifest)
		case "trace_id":
			if b, ok := d.text(); ok {
				if string(b) != d.trace {
					d.trace = string(b)
				}
				r.TraceID = d.trace
			}
		default:
			d.Skip()
		}
	})
}

// manifestString stores the string at the cursor in *dst: the last
// manifest decoded when they are equal, else a copy that becomes it.
func (d *Decoder) manifestString(dst *string) {
	if b, ok := d.text(); ok {
		if string(b) != d.manifest {
			d.manifest = string(b)
		}
		*dst = d.manifest
	}
}

// index reads the integer at the cursor as an index into one of the
// file's tables, of n entries; one it does not hold is an error.
func (d *Decoder) index(n int, what string) int {
	i := -1
	if d.Int(&i); d.err == nil && (i < 0 || i >= n) {
		d.Fail(fmt.Errorf("metricsdb: %s %d is not in the file's table of %d", what, i, n))
	}
	return i
}

// Results appends the results in the array at the cursor to dst.
func (d *Decoder) Results(dst []Result) []Result {
	d.Array(func() {
		dst = append(dst, Result{})
		d.Result(&dst[len(dst)-1])
	})
	return dst
}

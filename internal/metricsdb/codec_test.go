package metricsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// fullResult sets every optional field; bareResult none of them.
func fullResult() Result {
	return Result{
		Seq: 9, Benchmark: "saxpy", Workload: "problem", System: "cts1", Experiment: "saxpy_512",
		FOMs:     map[string]float64{"time": 1.25, "bw<GB/s>": 1e21, "tiny": 1e-7, "a&b": -0.5},
		Meta:     map[string]string{"runner": "r-1", "note": "line\nbreak \"quoted\" \u2028", "": "empty key"},
		Manifest: "spack:\n  specs: [saxpy@1.0 +openmp]\n\t# tab, \\ and \x01\n",
		TraceID:  "4bf92f3577b34da6a3ce929d0e0e4736",
	}
}

func bareResult() Result { return Result{Benchmark: "b", System: "s"} }

// foldedMember reports whether data is an object with a member named
// like a Result field in another case: the one input class the Decoder
// deliberately reads differently from encoding/json (see Decoder).
func foldedMember(data []byte) bool {
	var members map[string]json.RawMessage
	if json.Unmarshal(data, &members) != nil {
		return false
	}
	for name := range members {
		for _, field := range []string{"seq", "benchmark", "workload", "system", "experiment", "foms", "meta", "manifest", "trace_id"} {
			if name != field && strings.EqualFold(name, field) {
				return true
			}
		}
	}
	return false
}

// checkEncode: AppendResult writes what json.Marshal writes, after
// whatever dst already held, or both refuse and dst is untouched.
func checkEncode(t *testing.T, r *Result) []byte {
	t.Helper()
	want, werr := json.Marshal(r)
	got, gerr := AppendResult([]byte("prefix"), r)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("json.Marshal: %v, AppendResult: %v, for %+v", werr, gerr, r)
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("AppendResult wrote\n%s\njson.Marshal\n%s", got[len("prefix"):], want)
	}
	return want
}

// checkDecode: the Decoder accepts data iff json.Unmarshal does, and
// into the same value; what it accepted encodes identically again. It
// returns that value, and false when there is none to compare.
func checkDecode(t *testing.T, d *Decoder, data []byte) (Result, bool) {
	t.Helper()
	var want, got Result
	werr := json.Unmarshal(data, &want)
	d.Reset(data)
	d.Result(&got)
	gerr := d.End()
	if foldedMember(data) {
		return got, false
	}
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("json.Unmarshal: %v, Decoder: %v, for %q", werr, gerr, data)
	}
	if werr != nil {
		return got, false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decoder read %+v, json.Unmarshal %+v, from %q", got, want, data)
	}
	checkEncode(t, &got)
	return got, true
}

// checkHeads: r goes into a DB by InsertAll beside a copy, on the next
// Seq, that differs from it in the head field numbered field. Both come
// back from Query and from AppendJSONAfter exactly as they went in, and
// the two rows point at two heads.
func checkHeads(t *testing.T, r *Result, field uint) {
	t.Helper()
	if r.Seq == math.MinInt || r.Seq == math.MaxInt {
		return // no Seq lies below it to read after, or above it for the copy
	}
	other := *r
	other.Seq++
	switch field % 5 {
	case 0:
		other.Benchmark += "'"
	case 1:
		other.Workload += "'"
	case 2:
		other.System += "'"
	case 3:
		other.Experiment += "'"
	case 4:
		other.Manifest += "'"
	}
	in := []Result{*r, other}
	db := New()
	if err := db.InsertAll(in); err != nil {
		t.Fatal(err)
	}
	if got := db.Query(Filter{}); !reflect.DeepEqual(got, in) {
		t.Fatalf("Query returned\n%+v\nwhere InsertAll stored\n%+v", got, in)
	}
	want, err := AppendResults(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	want[0], want = ',', want[:len(want)-1]
	if got, last, err := db.AppendJSONAfter(nil, math.MinInt, other.Seq, math.MaxInt, nil); err != nil || last != other.Seq || !bytes.Equal(got, want) {
		t.Fatalf("AppendJSONAfter wrote\n%s (%v, last %d)\nwhere the stored results are\n%s", got, err, last, want)
	}
	if len(db.heads) != 2 || db.at(0).head == db.at(1).head {
		t.Fatalf("results that differ in head field %d share a head (%d heads)", field%5, len(db.heads))
	}
}

// checkStored: a Result stored in a DB comes back out as the same bytes
// both ways a DB hands it over — encoded straight from its row, and
// built again by QueryAfterN and encoded by AppendResult.
func checkStored(t *testing.T, r *Result, want []byte) {
	t.Helper()
	if r.Seq == math.MinInt {
		return // no Seq lies below it to read after
	}
	db := New()
	if err := db.Insert(*r); err != nil {
		t.Fatal(err)
	}
	direct, last, err := db.AppendJSONAfter([]byte("prefix"), math.MinInt, r.Seq, math.MaxInt, nil)
	if err != nil || last != r.Seq || string(direct) != "prefix,"+string(want) {
		t.Fatalf("the stored row encodes as\n%s (%v)\njson.Marshal\n%s", direct, err, want)
	}
	back := db.QueryAfterN(math.MinInt, 1)
	if len(back) != 1 {
		t.Fatalf("QueryAfterN returned %d results, want the one stored", len(back))
	}
	if got, err := AppendResult(nil, &back[0]); err != nil || string(got) != string(want) {
		t.Fatalf("QueryAfterN's result encodes as\n%s (%v)\njson.Marshal\n%s", got, err, want)
	}
}

// checkBatches: copies of r — some under another head, some from
// another run, some with their FOMs or Meta nil, empty or wider — go
// into one DB in batches split where split's bits say and into another
// one at a time. Both encode them as the flat list does, with and
// without a file's table, and save the same JSON.
func checkBatches(t *testing.T, r *Result, split uint64) {
	t.Helper()
	in := make([]Result, 3+split%29)
	for i := range in {
		c := *r
		c.Seq = i + 1
		if i%4 == 3 {
			c.Experiment += "'"
		}
		if i%3 == 2 {
			c.TraceID += "'"
		}
		switch i % 5 {
		case 1:
			c.FOMs, c.Meta = nil, nil
		case 2:
			c.FOMs, c.Meta = map[string]float64{}, map[string]string{}
		case 3:
			c.FOMs, c.Meta = maps.Clone(c.FOMs), maps.Clone(c.Meta)
			if c.FOMs == nil {
				c.FOMs = map[string]float64{}
			}
			if c.Meta == nil {
				c.Meta = map[string]string{}
			}
			for j := 0; j < 9; j++ {
				c.FOMs[fmt.Sprint("wide", j)] = float64(j)
				c.Meta[fmt.Sprint("wide", j)] = c.Experiment
			}
		}
		in[i] = c
	}
	batched, single := New(), New()
	for at := 0; at < len(in); {
		size := 1 + int(split&3)
		split = split>>2 | split<<62
		if err := batched.InsertAll(in[at:min(at+size, len(in))]); err != nil {
			t.Fatal(err)
		}
		at += size
	}
	for i := range in {
		if err := single.Insert(in[i]); err != nil {
			t.Fatal(err)
		}
	}
	flat, err := AppendResults(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var flatTable HeadTable
	file, err := appendResults(nil, in, &flatTable)
	if err != nil {
		t.Fatal(err)
	}
	file = flatTable.AppendTables(file)
	want, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*DB{"batched": batched, "one at a time": single} {
		got, _, err := db.AppendJSONAfter([]byte{'['}, 0, len(in), math.MaxInt, nil)
		if err != nil || string(append(got[:1], append(got[2:], ']')...)) != string(flat) {
			t.Fatalf("%s: the DB encodes its results as\n%s (%v)\nthe flat list as\n%s", name, got, err, flat)
		}
		var table HeadTable
		got, _, err = db.AppendJSONAfter([]byte{'['}, 0, len(in), math.MaxInt, &table)
		if got = table.AppendTables(append(got[:1], append(got[2:], ']')...)); err != nil || !bytes.Equal(got, file) {
			t.Fatalf("%s: the DB writes its results in a file as\n%s (%v)\nthe flat list as\n%s", name, got, err, file)
		}
		if save, err := db.SaveJSON(); err != nil || save != string(want) {
			t.Fatalf("%s: SaveJSON wrote\n%s (%v)\njson.MarshalIndent\n%s", name, save, err, want)
		}
	}
}

// FuzzResultCodec is the differential test of the codec against the
// encoding/json it replaces, both directions. Encode: a Result built
// from the fuzz input marshals to the same bytes, or neither marshals,
// those bytes decode back to it, and a DB that stores it hands the same
// bytes back. Decode: arbitrary bytes are accepted by both or by
// neither, into equal values; what was accepted is stored beside a
// result of another head and comes back as it went in (checkHeads), and
// stored with variants of itself in randomly split batches and one at
// a time, which encode alike (checkBatches).
func FuzzResultCodec(f *testing.F) {
	full, _ := json.Marshal(fullResult())
	for _, seed := range []string{
		string(full),
		`{"id":1,"seq":2,"benchmark":"b","workload":"w","system":"s","experiment":"e","foms":{"t":1}}`,
		`{"benchmark":"b\n\t\"\\\/\b\f\r","system":"\ud83d\ude00 😀 \ud83d \ude00 \ud83dx","manifest":"\u2028<"}`,
		`{"foms":{"a":1e-7,"b":1e21,"c":5e-324,"d":-0,"e":1E+2,"f":0.1e-1,"g":1e400}}`,
		`{"foms":null,"meta":null,"id":null,"system":null}`,
		`{"foms":{"a":1},"foms":{"b":2,"a":null},"id":1,"id":2,"meta":{"k":"v"},"meta":null}`,
		`{"unknown":[1,{"x":[true,false,null]},"s"],"ID":3,"Trace_ID":"x","id":4}`,
		` { "id" : 1 , "foms" : { } , "meta" : { } } `,
		`{"id":1.0}`, `{"id":1e2}`, `{"id":"1"}`, `{"id":9223372036854775808}`, `{"id":-0}`, `{"seq":01}`,
		`{"benchmark":5}`, `{"foms":[]}`, `{"meta":{"a":1}}`, `null`, `5`, `[]`, `{}x`, `{"a":1,}`, `{"a"}`,
		`{"manifest":"` + strings.Repeat(`spack:\n  - \"x\"\t<&>é\\`, 200) + `"}`,
		"{\"system\":\"raw \xff\xfe bytes \xe2\x80\"}", "{\"system\":\"ctl \x01\"}", `{"system":"\x"}`, `{"system":"\u12"}`, "{\"manifest\":\"raw \u2028 \u00e9\"}",
		strings.Repeat("[", 10001), `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	} {
		f.Add([]byte(seed), "fom<&>\xff\u2029", 0.1, 3)
	}
	// Over eight FOMs and Meta members, starting from empty maps and
	// from four members; shapes 0 and 1 below are nil and empty maps.
	f.Add([]byte(`{}`), "many", 2.5, 5)
	f.Add([]byte(`{}`), "many", 2.5, 7)
	f.Add([]byte(`{}`), "", math.Inf(1), 0)
	f.Add([]byte(`{}`), "k", math.NaN(), 1)
	f.Add([]byte(`{}`), "\x00\x1f\x7f", 5e-324, 2)
	f.Fuzz(func(t *testing.T, data []byte, text string, num float64, shape int) {
		var d Decoder // a new one each time: what the table holds must not steer coverage
		r := Result{Seq: -shape, Benchmark: text, Workload: text + "w", System: "s", Experiment: text,
			Manifest: strings.Repeat(text, shape&3), TraceID: text}
		switch shape & 3 {
		case 1:
			r.FOMs, r.Meta = map[string]float64{}, map[string]string{}
		case 2:
			r.FOMs = map[string]float64{text: num}
			r.Meta = map[string]string{text: text}
		case 3:
			r.FOMs = map[string]float64{text: num, "b": -num, "a": num * 1e22, "": num / 1e9}
			r.Meta = map[string]string{"z": text, text: "", "a": text + text}
		}
		if shape&4 != 0 && r.FOMs != nil { // more members than the encoder sorts on the stack
			for i := 0; i < 9; i++ {
				r.FOMs[fmt.Sprintf("%s%d", text, i)] = num + float64(i)
				r.Meta[fmt.Sprintf("m%d", 8-i)] = text
			}
		}
		if encoded := checkEncode(t, &r); encoded != nil {
			checkDecode(t, &d, encoded)
			checkStored(t, &r, encoded)
		}
		if decoded, ok := checkDecode(t, &d, data); ok {
			checkHeads(t, &decoded, uint(shape))
			checkBatches(t, &decoded, math.Float64bits(num)^uint64(shape))
		}
	})
}

// TestAppendResultMatchesJSON runs the encode half on the two shapes
// the stores write — every optional field, and none — on empty maps,
// on more members than the encoder sorts on the stack, and on the
// values with no JSON form.
func TestAppendResultMatchesJSON(t *testing.T) {
	var d Decoder
	many := fullResult()
	for i := 0; i < 9; i++ {
		many.FOMs[fmt.Sprintf("f%d", 8-i)] = float64(i)
		many.Meta[fmt.Sprintf("m%d", i)] = "v"
	}
	for _, r := range []Result{fullResult(), bareResult(), {FOMs: map[string]float64{}}, {FOMs: map[string]float64{}, Meta: map[string]string{}}, many} {
		encoded := checkEncode(t, &r)
		checkDecode(t, &d, encoded)
		checkStored(t, &r, encoded)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := fullResult()
		r.FOMs["zz"] = bad // sorts last: everything before it was already appended
		if out, err := AppendResult([]byte("kept"), &r); err == nil || string(out) != "kept" {
			t.Fatalf("AppendResult(%v) = %q, %v; want the buffer untouched and an error", bad, out, err)
		}
		if out, err := AppendResults(nil, []Result{bareResult(), r, bareResult()}); err == nil {
			t.Fatalf("AppendResults(%v) = %q; want an error", bad, out)
		}
	}
	rs := []Result{fullResult(), bareResult()}
	for _, rs := range [][]Result{rs, {}, nil} {
		want, _ := json.Marshal(rs)
		got, err := AppendResults(nil, rs)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendResults = %s, %v; json.Marshal = %s", got, err, want)
		}
		d.Reset(got)
		back := d.Results(nil)
		if err := d.End(); err != nil || len(back) != len(rs) || (len(rs) > 0 && !reflect.DeepEqual(back, rs)) {
			t.Fatalf("Results read %+v, %v from %s", back, err, got)
		}
	}
}

// TestAppendResultAllocatesNothing pins the encoder's cost model: into
// a buffer with room, a result — maps, sorting and all — is appended
// without touching the heap.
func TestAppendResultAllocatesNothing(t *testing.T) {
	r := fullResult()
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendResult(buf, &r); err != nil {
			t.Fatal(err)
		}
	}); !raceEnabled && n != 0 {
		t.Fatalf("AppendResult allocates %v times per result, want 0", n)
	}
}

// TestDecoderInternsNames: the names a fleet repeats are one
// allocation however many results carry them, across Resets; so is a
// manifest equal to the one before it, while an unequal one and Meta
// values are not shared; and the table stops at its cap whatever is
// sent.
func TestDecoderInternsNames(t *testing.T) {
	var d Decoder
	decode := func(doc string) Result {
		t.Helper()
		var r Result
		d.Reset([]byte(doc))
		d.Result(&r)
		if err := d.End(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	const doc = `{"benchmark":"saxpy","workload":"problem","system":"cts1","experiment":"e1","foms":{"time":1},"meta":{"runner":"r1"},"manifest":"spack: {}","trace_id":"t1"}`
	a, b := decode(doc), decode(doc)
	same := func(what, x, y string) {
		t.Helper()
		if x != y || unsafe.StringData(x) != unsafe.StringData(y) {
			t.Errorf("%s: %q and %q do not share their bytes", what, x, y)
		}
	}
	same("benchmark", a.Benchmark, b.Benchmark)
	same("workload", a.Workload, b.Workload)
	same("system", a.System, b.System)
	same("experiment", a.Experiment, b.Experiment)
	same("trace_id", a.TraceID, b.TraceID)
	key := func(r Result) (fom, meta string) {
		for fom = range r.FOMs {
		}
		for meta = range r.Meta {
		}
		return fom, meta
	}
	af, am := key(a)
	bf, bm := key(b)
	same("fom name", af, bf)
	same("meta name", am, bm)
	same("manifest", a.Manifest, b.Manifest)
	if unsafe.StringData(a.Meta["runner"]) == unsafe.StringData(b.Meta["runner"]) {
		t.Error("meta values share their bytes")
	}
	other := decode(strings.Replace(doc, "spack: {}", "spack: {specs: []}", 1))
	if again := decode(doc); other.Manifest != "spack: {specs: []}" || unsafe.StringData(other.Manifest) == unsafe.StringData(a.Manifest) ||
		unsafe.StringData(again.Manifest) == unsafe.StringData(other.Manifest) {
		t.Errorf("unequal manifests %q and %q share their bytes", other.Manifest, again.Manifest)
	}
	if a.System != "cts1" {
		t.Errorf("system %q", a.System)
	}
	long := strings.Repeat("x", internMaxLen+1)
	decode(`{"system":"` + long + `"}`)
	names := len(d.names)
	if _, held := d.names[long]; held {
		t.Errorf("a %d-byte name was interned", len(long))
	}
	for i := 0; i < 10*internCap; i++ {
		decode(fmt.Sprintf(`{"experiment":"hostile-%d","foms":{"f%d":1}}`, i, i))
	}
	if len(d.names) != internCap || names >= internCap {
		t.Fatalf("table holds %d names after %d distinct ones, want the cap %d", len(d.names), 20*internCap, internCap)
	}
}

// TestRecycleFillsBoundedFreeLists: the maps Recycle is handed are the
// ones the next results decode into, emptied, so a push decoded after
// the last one was recycled makes no map; each free list stops at
// maxIdleMaps, and a map of more than maxRecycledLen members is left to
// the GC.
func TestRecycleFillsBoundedFreeLists(t *testing.T) {
	var d Decoder
	array := func(n int, doc string) []byte {
		return []byte("[" + strings.TrimSuffix(strings.Repeat(doc+",", n), ",") + "]")
	}
	decode := func(dst []Result, data []byte) []Result {
		d.Reset(data)
		dst = d.Results(dst[:0])
		if err := d.End(); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	recycle := func(rs []Result) {
		for i := range rs {
			d.Recycle(&rs[i])
		}
	}
	const doc = `{"benchmark":"saxpy","system":"cts1","foms":{"time":1,"bw":2},"meta":{"runner":"r1"}}`
	first := decode(nil, array(maxIdleMaps+10, doc))
	held := map[uintptr]bool{}
	for _, r := range first {
		held[reflect.ValueOf(r.FOMs).Pointer()] = true
		held[reflect.ValueOf(r.Meta).Pointer()] = true
	}
	recycle(first)
	if len(d.foms) != maxIdleMaps || len(d.meta) != maxIdleMaps || first[0].FOMs != nil {
		t.Fatalf("free lists hold %d and %d maps (result 0's FOMs %v), want %d each and the result's maps gone",
			len(d.foms), len(d.meta), first[0].FOMs, maxIdleMaps)
	}
	data, second := array(maxIdleMaps, doc), make([]Result, 0, maxIdleMaps)
	second = decode(second, data)
	for _, r := range second {
		if !held[reflect.ValueOf(r.FOMs).Pointer()] || !held[reflect.ValueOf(r.Meta).Pointer()] ||
			!reflect.DeepEqual(r.FOMs, map[string]float64{"time": 1, "bw": 2}) || !reflect.DeepEqual(r.Meta, map[string]string{"runner": "r1"}) {
			t.Fatalf("a result decoded after the recycle reads %v %v in maps of its own", r.FOMs, r.Meta)
		}
	}
	recycle(second)
	// What is left to allocate, per result, is its Meta value (those are
	// never shared) and the walk's three closures: four. Fresh maps took
	// eight.
	if n := testing.AllocsPerRun(10, func() { recycle(decode(second, data)) }); !raceEnabled && n > 4*maxIdleMaps {
		t.Errorf("decoding %d results into recycled maps allocates %v times, want at most %d", maxIdleMaps, n, 4*maxIdleMaps)
	}
	big := `{"foms":{"f0":1`
	for i := 1; i <= maxRecycledLen; i++ {
		big += fmt.Sprintf(`,"f%d":1`, i)
	}
	d.foms = d.foms[:0]
	recycle(decode(nil, []byte("["+big+"}}]")))
	if len(d.foms) != 0 {
		t.Errorf("a map of %d members was kept", maxRecycledLen+1)
	}
}

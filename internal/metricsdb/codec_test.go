package metricsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// fullResult sets every optional field; bareResult none of them.
func fullResult() Result {
	return Result{
		ID: 7, Seq: 9, Benchmark: "saxpy", Workload: "problem", System: "cts1", Experiment: "saxpy_512",
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
		for _, field := range []string{"id", "seq", "benchmark", "workload", "system", "experiment", "foms", "meta", "manifest", "trace_id"} {
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
// into the same value; what it accepted encodes identically again.
func checkDecode(t *testing.T, d *Decoder, data []byte) {
	t.Helper()
	var want, got Result
	werr := json.Unmarshal(data, &want)
	d.Reset(data)
	d.Result(&got)
	gerr := d.End()
	if foldedMember(data) {
		return
	}
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("json.Unmarshal: %v, Decoder: %v, for %q", werr, gerr, data)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decoder read %+v, json.Unmarshal %+v, from %q", got, want, data)
	}
	checkEncode(t, &got)
}

// FuzzResultCodec is the differential test of the codec against the
// encoding/json it replaces, both directions. Encode: a Result built
// from the fuzz input marshals to the same bytes, or neither marshals,
// and those bytes decode back to it. Decode: arbitrary bytes are
// accepted by both or by neither, into equal values.
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
	f.Add([]byte(`{}`), "", math.Inf(1), 0)
	f.Add([]byte(`{}`), "k", math.NaN(), 1)
	f.Add([]byte(`{}`), "\x00\x1f\x7f", 5e-324, 2)
	f.Fuzz(func(t *testing.T, data []byte, text string, num float64, shape int) {
		var d Decoder // a new one each time: what the table holds must not steer coverage
		r := Result{ID: shape, Seq: -shape, Benchmark: text, Workload: text + "w", System: "s", Experiment: text,
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
		if encoded := checkEncode(t, &r); encoded != nil {
			checkDecode(t, &d, encoded)
		}
		checkDecode(t, &d, data)
	})
}

// TestAppendResultMatchesJSON runs the encode half on the two shapes
// the stores write — every optional field, and none — and on the
// values with no JSON form.
func TestAppendResultMatchesJSON(t *testing.T) {
	var d Decoder
	for _, r := range []Result{fullResult(), bareResult(), {FOMs: map[string]float64{}}} {
		checkDecode(t, &d, checkEncode(t, &r))
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
	}); n != 0 {
		t.Fatalf("AppendResult allocates %v times per result, want 0", n)
	}
}

// TestDecoderInternsNames: the names a fleet repeats are one
// allocation however many results carry them, across Resets; values
// that do not repeat are never shared; and the table stops at its cap
// whatever is sent.
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
	if unsafe.StringData(a.Manifest) == unsafe.StringData(b.Manifest) || unsafe.StringData(a.Meta["runner"]) == unsafe.StringData(b.Meta["runner"]) {
		t.Error("manifests or meta values share their bytes")
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

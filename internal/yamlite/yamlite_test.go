package yamlite

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustParseMap(t *testing.T, src string) *Map {
	t.Helper()
	m, err := ParseMap(src)
	if err != nil {
		t.Fatalf("ParseMap(%q): %v", src, err)
	}
	return m
}

func TestParseScalarTypes(t *testing.T) {
	m := mustParseMap(t, `
int: 42
neg: -7
float: 3.5
boolt: true
boolf: false
nul: null
tilde: ~
str: hello world
quoted: 'a: b'
dquoted: "line\nbreak"
empty:
`)
	if v := m.Get("int"); v != int64(42) {
		t.Errorf("int = %#v", v)
	}
	if v := m.Get("neg"); v != int64(-7) {
		t.Errorf("neg = %#v", v)
	}
	if v := m.Get("float"); v != 3.5 {
		t.Errorf("float = %#v", v)
	}
	if v := m.Get("boolt"); v != true {
		t.Errorf("boolt = %#v", v)
	}
	if v := m.Get("boolf"); v != false {
		t.Errorf("boolf = %#v", v)
	}
	if v := m.Get("nul"); v != nil {
		t.Errorf("nul = %#v", v)
	}
	if v := m.Get("tilde"); v != nil {
		t.Errorf("tilde = %#v", v)
	}
	if v := m.Get("str"); v != "hello world" {
		t.Errorf("str = %#v", v)
	}
	if v := m.Get("quoted"); v != "a: b" {
		t.Errorf("quoted = %#v", v)
	}
	if v := m.Get("dquoted"); v != "line\nbreak" {
		t.Errorf("dquoted = %#v", v)
	}
	if !m.Has("empty") || m.Get("empty") != nil {
		t.Errorf("empty = %#v has=%v", m.Get("empty"), m.Has("empty"))
	}
}

func TestParseNestedMapping(t *testing.T) {
	m := mustParseMap(t, `
spack:
  specs: [amg2023+caliper]
  concretizer:
    unify: true
  view: true
`)
	if got := m.GetMap("spack").GetMap("concretizer").Get("unify"); got != true {
		t.Errorf("unify = %#v", got)
	}
	specs := m.GetMap("spack").GetStrings("specs")
	if !reflect.DeepEqual(specs, []string{"amg2023+caliper"}) {
		t.Errorf("specs = %#v", specs)
	}
}

// TestParseFigure4 parses the paper's Figure 4 configuration verbatim.
func TestParseFigure4(t *testing.T) {
	m := mustParseMap(t, `
packages:
  blas:
    externals:
    - spec: intel-oneapi-mkl@2022.1.0
      prefix: /path/to/intel-oneapi-mkl
    buildable: false
  mpi:
    externals:
    - spec: mvapich2@2.3.7-gcc12.1.1-magic
      prefix: /path/to/mvapich2
    buildable: false
`)
	blas := m.GetMap("packages").GetMap("blas")
	if blas.GetBool("buildable", true) {
		t.Error("blas should not be buildable")
	}
	ext := blas.GetSlice("externals")
	if len(ext) != 1 {
		t.Fatalf("externals = %#v", ext)
	}
	em := ext[0].(*Map)
	if em.GetString("spec") != "intel-oneapi-mkl@2022.1.0" {
		t.Errorf("spec = %q", em.GetString("spec"))
	}
	if em.GetString("prefix") != "/path/to/intel-oneapi-mkl" {
		t.Errorf("prefix = %q", em.GetString("prefix"))
	}
}

// TestParseFigure10 parses the experiment section of the paper's ramble.yaml.
func TestParseFigure10(t *testing.T) {
	m := mustParseMap(t, `
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  config:
    deprecated: true
    spack_flags:
      install: '--add --keep-stage'
      concretize: '-U -f'
  applications:
    saxpy:
      workloads:
        problem:
          env_vars:
            set:
              OMP_NUM_THREADS: '{n_threads}'
          variables:
            n_ranks: '8'
            batch_time: '120'
          experiments:
            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:
              variables:
                processes_per_node: ['8', '4']
                n_nodes: ['1', '2']
                n_threads: ['2', '4']
                n: ['512', '1024']
              matrices:
              - size_threads:
                - n
                - n_threads
  spack:
    packages:
      saxpy:
        spack_spec: saxpy@1.0.0 +openmp ^cmake@3.23.1
        compiler: default-compiler
    environments:
      saxpy:
        packages:
        - default-mpi
        - saxpy
`)
	inc := m.GetMap("ramble").GetStrings("include")
	if len(inc) != 2 || inc[0] != "./configs/spack.yaml" {
		t.Errorf("include = %#v", inc)
	}
	if got := m.GetMap("ramble").GetMap("config").GetMap("spack_flags").Get("install"); got != "--add --keep-stage" {
		t.Errorf("install flags = %#v", got)
	}
	exp := m.GetMap("ramble").GetMap("applications").GetMap("saxpy").GetMap("workloads").GetMap("problem").GetMap("experiments")
	name := exp.Keys()[0]
	if name != "saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}" {
		t.Errorf("experiment name = %q", name)
	}
	vars := exp.GetMap(name).GetMap("variables")
	if got := vars.GetStrings("n_nodes"); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("n_nodes = %#v", got)
	}
	mats := exp.GetMap(name).GetSlice("matrices")
	if len(mats) != 1 {
		t.Fatalf("matrices = %#v", mats)
	}
	mat := mats[0].(*Map)
	if got := mat.GetStrings("size_threads"); !reflect.DeepEqual(got, []string{"n", "n_threads"}) {
		t.Errorf("size_threads = %#v", got)
	}
	env := m.GetMap("ramble").GetMap("spack").GetMap("environments").GetMap("saxpy")
	if got := env.GetStrings("packages"); !reflect.DeepEqual(got, []string{"default-mpi", "saxpy"}) {
		t.Errorf("env packages = %#v", got)
	}
}

func TestParseSequenceOfScalars(t *testing.T) {
	v, err := Parse("- a\n- b\n- 3\n")
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := v.([]Value)
	if !ok || len(seq) != 3 || seq[0] != "a" || seq[2] != int64(3) {
		t.Errorf("seq = %#v", v)
	}
}

func TestParseFlowCollections(t *testing.T) {
	m := mustParseMap(t, `
compilers: [gcc1211, intel202160classic]
empty_seq: []
empty_map: {}
inline: {a: 1, b: [x, y]}
nested: [[1, 2], [3]]
quoted: {"a": 1, 'x:y': 2, 'it''s': {"k q": z}}
`)
	if got := m.GetStrings("compilers"); !reflect.DeepEqual(got, []string{"gcc1211", "intel202160classic"}) {
		t.Errorf("compilers = %#v", got)
	}
	if got := m.GetSlice("empty_seq"); len(got) != 0 {
		t.Errorf("empty_seq = %#v", got)
	}
	inline := m.GetMap("inline")
	if v := inline.Get("a"); v != int64(1) {
		t.Errorf("inline.a = %#v", inline.Get("a"))
	}
	if got := inline.GetStrings("b"); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("inline.b = %#v", got)
	}
	nested := m.GetSlice("nested")
	if len(nested) != 2 {
		t.Fatalf("nested = %#v", nested)
	}
	if inner := nested[0].([]Value); inner[1] != int64(2) {
		t.Errorf("nested[0] = %#v", inner)
	}
	// Flow-mapping keys split and unquote as block-mapping keys do.
	quoted := m.GetMap("quoted")
	if got := quoted.Keys(); !reflect.DeepEqual(got, []string{"a", "x:y", "it's"}) {
		t.Errorf("quoted keys = %q", got)
	}
	if quoted.Get("a") != int64(1) || quoted.Get("x:y") != int64(2) || quoted.GetMap("it's").GetString("k q") != "z" {
		t.Errorf("quoted = %s", Marshal(quoted))
	}
}

func TestComments(t *testing.T) {
	m := mustParseMap(t, `
# full-line comment
key: value # trailing comment
url: http://example.com/#frag
hash: 'a # not comment'
`)
	if m.GetString("key") != "value" {
		t.Errorf("key = %q", m.GetString("key"))
	}
	if m.GetString("url") != "http://example.com/#frag" {
		t.Errorf("url = %q (hash without preceding space is not a comment)", m.GetString("url"))
	}
	if m.GetString("hash") != "a # not comment" {
		t.Errorf("hash = %q", m.GetString("hash"))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"\tkey: value",         // tab indentation
		"key: value\nkey: dup", // duplicate key
		"key: [a, b",           // unterminated flow
		"key: 'oops",           // unterminated quote
		"just some text\nmore", // not a mapping
		"key: {a: 1, a: 2}",    // duplicate flow-mapping key
		"key: {'a': 1, a: 2}",  // duplicate once unquoted
		"key: {a}",             // flow-mapping entry without ':'
	}
	for _, src := range cases {
		if _, err := ParseMap(src); err == nil {
			t.Errorf("ParseMap(%q): expected error", src)
		}
	}
}

func TestDocumentStartMarker(t *testing.T) {
	m := mustParseMap(t, "---\nkey: v\n")
	if m.GetString("key") != "v" {
		t.Errorf("key = %q", m.GetString("key"))
	}
}

func TestMapOperations(t *testing.T) {
	m := NewMap()
	m.Set("b", int64(1))
	m.Set("a", int64(2))
	m.Set("b", int64(3)) // overwrite keeps position
	if !reflect.DeepEqual(m.Keys(), []string{"b", "a"}) {
		t.Errorf("keys = %v", m.Keys())
	}
	if v := m.Get("b"); v != int64(3) {
		t.Errorf("b = %v", v)
	}
	if !m.Has("b") || m.Has("c") || m.Len() != 2 {
		t.Errorf("has/len: %v", m.Keys())
	}
}

func TestMergeScopes(t *testing.T) {
	base := mustParseMap(t, `
packages:
  mpi:
    version: 1
  blas:
    vendor: openblas
`)
	site := mustParseMap(t, `
packages:
  mpi:
    version: 2
  lapack:
    vendor: mkl
`)
	base.Merge(site)
	if v := base.GetMap("packages").GetMap("mpi").Get("version"); v != int64(2) {
		t.Errorf("mpi version = %v, want site override 2", v)
	}
	if base.GetMap("packages").GetMap("blas").GetString("vendor") != "openblas" {
		t.Error("blas entry lost in merge")
	}
	if base.GetMap("packages").GetMap("lapack").GetString("vendor") != "mkl" {
		t.Error("lapack entry not merged in")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	src := `
spack:
  packages:
    default-compiler:
      spack_spec: gcc@12.1.1
    lapack:
      spack_spec: intel-oneapi-mkl@2022.1.0
  externals:
  - spec: mvapich2@2.3.7
    prefix: /path/to/mvapich2
  flags: [a, b]
  count: 3
  enabled: true
`
	m1 := mustParseMap(t, src)
	out := Marshal(m1)
	m2, err := ParseMap(out)
	if err != nil {
		t.Fatalf("reparse of %q: %v", out, err)
	}
	if !reflect.DeepEqual(normalize(m1), normalize(m2)) {
		t.Errorf("round trip mismatch:\n%s\nvs reparsed\n%s", Marshal(m1), Marshal(m2))
	}
}

// normalize converts Maps to plain nested map[string]any for comparison.
func normalize(v Value) any {
	switch t := v.(type) {
	case *Map:
		out := map[string]any{}
		for _, k := range t.Keys() {
			out[k] = normalize(t.Get(k))
		}
		return out
	case []Value:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = normalize(e)
		}
		return out
	default:
		return v
	}
}

// marshalScalar renders s as the value of a one-key map.
func marshalScalar(s string) string {
	m := NewMap()
	m.Set("k", s)
	return Marshal(m)
}

// scalarRoundTrips is the round-trip property: any printable string
// survives a marshal/parse round trip as a map value. A string outside
// the subset's scope passes vacuously.
func scalarRoundTrips(s string) bool {
	if outOfScope(s) {
		return true
	}
	got, err := ParseMap(marshalScalar(s))
	if err != nil {
		return false
	}
	gv := got.Get("k")
	if s == "" {
		return gv == nil || gv == ""
	}
	// Plain scalars that look like numbers/bools are quoted by
	// Marshal, so they must come back as the same string.
	return ScalarString(gv) == s
}

// outOfScope reports a string the subset does not promise to round-trip.
func outOfScope(s string) bool { return strings.ContainsAny(s, "\n\r\t") || !isPrintable(s) }

// keyRoundTrips is the same property for s as a mapping key.
func keyRoundTrips(s string) bool {
	if outOfScope(s) {
		return true
	}
	got, err := ParseMap(Marshal(MapOf(s, "v")))
	return err == nil && reflect.DeepEqual(got.Keys(), []string{s}) && got.Get(s) == "v"
}

// TestQuickScalarRoundTrip checks the property on testing/quick's
// (time-seeded) strings.
func TestQuickScalarRoundTrip(t *testing.T) {
	if err := quick.Check(scalarRoundTrips, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(keyRoundTrips, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// unicodeEdgeSpace are scalars that begin or end with whitespace the
// parser's strings.TrimSpace strips but ASCII-only quoting let through:
// each came back as "a", a silently changed config value, and is what
// made the time-seeded quick test above fail about one run in a hundred.
var unicodeEdgeSpace = []string{
	"a\u2003", "\u2003a", "a\u00a0", "a\u0085", "a\u3000", "a\u2028",
	"a\u2003b", // interior: never at risk, pinned so the fix stays at the edges
}

func TestScalarEdgeWhitespaceRoundTrips(t *testing.T) {
	for _, s := range append([]string{"a ", " a"}, unicodeEdgeSpace...) {
		if !scalarRoundTrips(s) {
			t.Errorf("%q does not survive Marshal → ParseMap (marshalled %q)", s, marshalScalar(s))
		}
		if !keyRoundTrips(s) {
			t.Errorf("key %q does not survive Marshal → ParseMap (marshalled %q)", s, Marshal(MapOf(s, "v")))
		}
	}
}

// FuzzScalarRoundTrip drives the same property, for the string as a
// value and as a key, from the fuzzer's corpus; scripts/verify.sh
// gives it five seconds.
func FuzzScalarRoundTrip(f *testing.F) {
	for _, s := range append([]string{"", "a", "1.5", "true", "- a", "k: v", "it's", "#c"}, unicodeEdgeSpace...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if !scalarRoundTrips(s) {
			t.Fatalf("%q does not survive Marshal → ParseMap (marshalled %q)", s, marshalScalar(s))
		}
		if !keyRoundTrips(s) {
			t.Fatalf("key %q does not survive Marshal → ParseMap (marshalled %q)", s, Marshal(MapOf(s, "v")))
		}
	})
}

func isPrintable(s string) bool {
	for _, r := range s {
		if r < 0x20 || r == 0x7f {
			return false
		}
	}
	return true
}

func TestGetStringsScalarCoercion(t *testing.T) {
	m := mustParseMap(t, "one: single\nnums: [1, 2]\n")
	if got := m.GetStrings("one"); !reflect.DeepEqual(got, []string{"single"}) {
		t.Errorf("scalar coercion = %#v", got)
	}
	if got := m.GetStrings("nums"); !reflect.DeepEqual(got, []string{"1", "2"}) {
		t.Errorf("nums = %#v", got)
	}
	if got := m.GetStrings("missing"); got != nil {
		t.Errorf("missing = %#v", got)
	}
}

func TestSequenceAtParentIndent(t *testing.T) {
	// Both styles must parse identically.
	a := mustParseMap(t, "key:\n- 1\n- 2\nafter: x\n")
	b := mustParseMap(t, "key:\n  - 1\n  - 2\nafter: x\n")
	if !reflect.DeepEqual(normalize(a), normalize(b)) {
		t.Errorf("indent styles differ: %#v vs %#v", normalize(a), normalize(b))
	}
	if a.GetString("after") != "x" {
		t.Error("key after same-indent sequence lost")
	}
}

func TestNestedSequenceEntries(t *testing.T) {
	m := mustParseMap(t, `
matrices:
- size_threads:
  - n
  - n_threads
- other:
  - q
`)
	mats := m.GetSlice("matrices")
	if len(mats) != 2 {
		t.Fatalf("matrices = %#v", mats)
	}
	first := mats[0].(*Map)
	if got := first.GetStrings("size_threads"); !reflect.DeepEqual(got, []string{"n", "n_threads"}) {
		t.Errorf("first = %#v", got)
	}
}

func TestMarshalEmptyCollections(t *testing.T) {
	m := NewMap()
	m.Set("emptymap", NewMap())
	m.Set("emptyseq", []Value{})
	out := Marshal(m)
	got, err := ParseMap(out)
	if err != nil {
		t.Fatalf("%v in %q", err, out)
	}
	if got.GetMap("emptymap") == nil {
		t.Errorf("emptymap lost: %q", out)
	}
	if got.GetSlice("emptyseq") == nil {
		t.Errorf("emptyseq lost: %q", out)
	}
}

func TestQuotedKeys(t *testing.T) {
	m := mustParseMap(t, "'weird: key': v\n\"another\": w\n")
	if m.GetString("weird: key") != "v" {
		t.Errorf("quoted key = %#v", m.Keys())
	}
	if m.GetString("another") != "w" {
		t.Errorf("dquoted key = %#v", m.Keys())
	}
	// A quoted key unquotes as a quoted scalar does (FuzzScalarRoundTrip
	// holds keys Marshal writes to it; this is the double-quoted form).
	m = mustParseMap(t, `"a\"b": 1`+"\n'c''d': 2\n")
	if got := m.Keys(); !reflect.DeepEqual(got, []string{`a"b`, "c'd"}) {
		t.Errorf("escaped quoted keys = %q", got)
	}
}

func TestBlockScalars(t *testing.T) {
	m := mustParseMap(t, `
job:
  script: |
    spack install saxpy
    ramble on
  note: |-
    single line no trailing newline
  folded: >
    these words
    join together
after: ok
`)
	job := m.GetMap("job")
	if got := job.GetString("script"); got != "spack install saxpy\nramble on\n" {
		t.Errorf("literal block = %q", got)
	}
	if got := job.GetString("note"); got != "single line no trailing newline" {
		t.Errorf("strip block = %q", got)
	}
	if got := job.GetString("folded"); got != "these words join together\n" {
		t.Errorf("folded block = %q", got)
	}
	if m.GetString("after") != "ok" {
		t.Error("mapping after block scalar lost")
	}
}

func TestBlockScalarEmpty(t *testing.T) {
	m := mustParseMap(t, "key: |\nafter: 1\n")
	if got := m.GetString("key"); got != "" {
		t.Errorf("empty block = %q", got)
	}
	if v := m.Get("after"); v != int64(1) {
		t.Error("after key lost")
	}
}

// TestQuickStructureRoundTrip: random nested documents survive
// Marshal → Parse with structural equality.
func TestQuickStructureRoundTrip(t *testing.T) {
	var gen func(r *rand.Rand, depth int) Value
	gen = func(r *rand.Rand, depth int) Value {
		if depth <= 0 {
			switch r.Intn(4) {
			case 0:
				return int64(r.Intn(1000) - 500)
			case 1:
				return r.Intn(2) == 0
			case 2:
				return "s" + string(rune('a'+r.Intn(26)))
			default:
				return float64(r.Intn(100)) + 0.5
			}
		}
		switch r.Intn(3) {
		case 0:
			m := NewMap()
			for i := 0; i < 1+r.Intn(3); i++ {
				m.Set(string(rune('a'+i))+string(rune('a'+r.Intn(26))), gen(r, depth-1))
			}
			return m
		case 1:
			n := 1 + r.Intn(3)
			seq := make([]Value, n)
			for i := range seq {
				seq[i] = gen(r, depth-1)
			}
			return seq
		default:
			return gen(r, 0)
		}
	}
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		m := NewMap()
		for k := 0; k < 1+r.Intn(4); k++ {
			m.Set("k"+string(rune('a'+k)), gen(r, 3))
		}
		out := Marshal(m)
		back, err := ParseMap(out)
		if err != nil {
			t.Fatalf("reparse failed for:\n%s\nerr: %v", out, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(back)) {
			t.Fatalf("structure mismatch:\n%s\n-- became --\n%s", out, Marshal(back))
		}
	}
}

func TestBlockScalarWithCommentsAndBlanks(t *testing.T) {
	m := mustParseMap(t, `job:
  script: |
    #!/bin/bash
    # this comment is content, not stripped

    echo hello
      indented deeper
after: yes
`)
	got := m.GetMap("job").GetString("script")
	want := "#!/bin/bash\n# this comment is content, not stripped\n\necho hello\n  indented deeper\n"
	if got != want {
		t.Errorf("block = %q\nwant    %q", got, want)
	}
	if !m.GetBool("after", false) {
		t.Error("key after block lost")
	}
}

func TestBlockScalarTrailingBlanksDropped(t *testing.T) {
	m := mustParseMap(t, "key: |-\n  content\n\n\nnext: 1\n")
	if got := m.GetString("key"); got != "content" {
		t.Errorf("key = %q", got)
	}
	if v := m.Get("next"); v != int64(1) {
		t.Error("next lost")
	}
}

func TestCommentOnlyLinesBetweenKeys(t *testing.T) {
	m := mustParseMap(t, `a: 1
# interleaved comment

b: 2
nested:
  # comment inside nested map
  c: 3
`)
	if v := m.Get("a"); v != int64(1) {
		t.Error("a")
	}
	if v := m.Get("b"); v != int64(2) {
		t.Error("b")
	}
	if v := m.GetMap("nested").Get("c"); v != int64(3) {
		t.Error("nested.c")
	}
}

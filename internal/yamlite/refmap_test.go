package yamlite

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// refMap is the Map this package had before a Map became one slice of
// pairs: the key order in a slice beside a Go map, and a Merge that
// deep-copies src. It is the reference the slice representation must
// agree with, operation for operation.
type refMap struct {
	keys []string
	vals map[string]Value
}

func newRefMap() *refMap { return &refMap{} }

func (m *refMap) Len() int { return len(m.keys) }

func (m *refMap) Keys() []string {
	out := make([]string, len(m.keys))
	copy(out, m.keys)
	return out
}

func (m *refMap) Has(key string) bool {
	_, ok := m.vals[key]
	return ok
}

func (m *refMap) Get(key string) Value { return m.vals[key] }

func (m *refMap) Set(key string, v Value) {
	if m.vals == nil {
		m.vals = make(map[string]Value)
	}
	if _, ok := m.vals[key]; !ok {
		m.keys = append(m.keys, key)
	}
	m.vals[key] = v
}

func (m *refMap) Clone() *refMap {
	out := newRefMap()
	for _, k := range m.keys {
		out.Set(k, refClone(m.vals[k]))
	}
	return out
}

func refClone(v Value) Value {
	switch t := v.(type) {
	case *refMap:
		return t.Clone()
	case []Value:
		out := make([]Value, len(t))
		for i, e := range t {
			out[i] = refClone(e)
		}
		return out
	default:
		return v
	}
}

func (m *refMap) Merge(src *refMap) {
	for _, k := range src.keys {
		sv := src.vals[k]
		if dstMap, ok := m.Get(k).(*refMap); ok {
			if srcMap, ok2 := sv.(*refMap); ok2 {
				dstMap.Merge(srcMap)
				continue
			}
		}
		m.Set(k, refClone(sv))
	}
}

// refMarshal is Marshal as it was written over refMap.
func refMarshal(v Value) string {
	var b strings.Builder
	refEmit(&b, v, 0, false)
	return b.String()
}

func refEmit(b *strings.Builder, v Value, indent int, inSeq bool) {
	pad := strings.Repeat(" ", indent)
	switch t := v.(type) {
	case *refMap:
		if t.Len() == 0 {
			b.WriteString(pad + "{}\n")
			return
		}
		for i, k := range t.keys {
			p := pad
			if inSeq && i == 0 {
				p = ""
			}
			val := t.vals[k]
			switch vv := val.(type) {
			case *refMap:
				if vv.Len() == 0 {
					b.WriteString(p + emitKey(k) + ": {}\n")
				} else {
					b.WriteString(p + emitKey(k) + ":\n")
					refEmit(b, vv, indent+2, false)
				}
			case []Value:
				if len(vv) == 0 {
					b.WriteString(p + emitKey(k) + ": []\n")
				} else {
					b.WriteString(p + emitKey(k) + ":\n")
					refEmit(b, vv, indent, false)
				}
			default:
				b.WriteString(p + emitKey(k) + ": " + emitScalar(val) + "\n")
			}
		}
	case []Value:
		for _, e := range t {
			switch ev := e.(type) {
			case *refMap:
				b.WriteString(pad + "- ")
				refEmit(b, ev, indent+2, true)
			case []Value:
				b.WriteString(pad + "-\n")
				refEmit(b, ev, indent+2, false)
			default:
				b.WriteString(pad + "- " + emitScalar(e) + "\n")
			}
		}
	default:
		b.WriteString(pad + emitScalar(v) + "\n")
	}
}

// refKeys is small so that Set overwrites and Merge meets keys the
// destination already holds.
var refKeys = []string{"a", "b", "c", "spack", "packages", "it's", "x: y", "1.5", ""}

var refScalars = []Value{nil, true, false, int64(0), int64(-7), int64(1 << 40), 2.5, math.Inf(-1),
	"", "v", "gcc@12.1.1", "it's", "- a", "k: v", "true", "1e3"}

// genPair builds one value twice: over Map for the model under test and
// over refMap for the reference.
func genPair(r *rand.Rand, depth int) (Value, Value) {
	switch n := r.Intn(5); {
	case n == 0 && depth > 0:
		return genMaps(r, depth-1)
	case n == 1 && depth > 0:
		seq, ref := []Value{}, []Value{}
		for i := r.Intn(3); i >= 0; i-- {
			a, b := genPair(r, depth-1)
			seq, ref = append(seq, a), append(ref, b)
		}
		return seq, ref
	default:
		v := refScalars[r.Intn(len(refScalars))]
		return v, v
	}
}

func genMaps(r *rand.Rand, depth int) (*Map, *refMap) {
	m, ref := NewMap(), newRefMap()
	for i := r.Intn(5); i > 0; i-- {
		k := refKeys[r.Intn(len(refKeys))]
		a, b := genPair(r, depth)
		m.Set(k, a)
		ref.Set(k, b)
	}
	return m, ref
}

// sameValue reports whether got (over Map) and want (over refMap) hold
// the same tree.
func sameValue(got, want Value) bool {
	switch w := want.(type) {
	case *refMap:
		g, ok := got.(*Map)
		if !ok || !reflect.DeepEqual(g.Keys(), w.Keys()) {
			return false
		}
		for _, k := range w.keys {
			if !sameValue(g.Get(k), w.Get(k)) {
				return false
			}
		}
		return true
	case []Value:
		g, ok := got.([]Value)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !sameValue(g[i], w[i]) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(got, want)
	}
}

// TestMapAgreesWithReference runs 300 seeded sequences of Set (with
// overwrites), Get, Has, Keys, Len, Merge at the root and into a
// nested map, and Marshal on Map and on refMap, and compares the two
// after every operation.
func TestMapAgreesWithReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		m, ref := genMaps(r, 2)
		for step := 0; step < 40; step++ {
			k := refKeys[r.Intn(len(refKeys))]
			var op string
			switch r.Intn(7) {
			case 0, 1:
				op = "Set " + k
				a, b := genPair(r, 2)
				m.Set(k, a)
				ref.Set(k, b)
			case 2:
				op = "Get/Has " + k
				if !sameValue(m.Get(k), ref.Get(k)) || m.Has(k) != ref.Has(k) {
					t.Fatalf("seed %d step %d: %s: Map gives %#v (has %v), refMap %#v (has %v)",
						seed, step, op, m.Get(k), m.Has(k), ref.Get(k), ref.Has(k))
				}
			case 3:
				op = "Merge"
				src, srcRef := genMaps(r, 2)
				m.Merge(src)
				ref.Merge(srcRef)
			case 4:
				op = "Merge into " + k
				dst, ok := m.Get(k).(*Map)
				if !ok {
					continue
				}
				src, srcRef := genMaps(r, 1)
				dst.Merge(src)
				ref.Get(k).(*refMap).Merge(srcRef)
			case 5:
				op = "Keys/Len"
				if !reflect.DeepEqual(m.Keys(), ref.Keys()) || m.Len() != ref.Len() {
					t.Fatalf("seed %d step %d: Keys %q (%d), refMap %q (%d)", seed, step, m.Keys(), m.Len(), ref.Keys(), ref.Len())
				}
			case 6:
				op = "Marshal"
			}
			if got, want := Marshal(m), refMarshal(ref); got != want || !sameValue(m, ref) {
				t.Fatalf("seed %d step %d, after %s: Map marshals as\n%s\nrefMap as\n%s", seed, step, op, got, want)
			}
		}
	}
}

// strconvFirst is parseScalar as it was before couldBeNumber: every
// plain scalar that is not null or a bool goes to strconv.
func strconvFirst(s string) (Value, error) {
	t := strings.TrimSpace(s)
	if t != "" && !strings.ContainsRune(`'"[{`, rune(t[0])) {
		switch t {
		case "null", "~", "Null", "NULL", "true", "True", "TRUE", "false", "False", "FALSE":
		default:
			if n, err := strconv.ParseInt(t, 10, 64); err == nil {
				return n, nil
			}
			if f, err := strconv.ParseFloat(t, 64); err == nil {
				return f, nil
			}
			return t, nil
		}
	}
	return parseScalar(s, 1)
}

// sameScalar compares two parse results, a NaN equal to a NaN.
func sameScalar(a, b Value) bool {
	fa, okA := a.(float64)
	fb, okB := b.(float64)
	if okA && okB {
		return math.Float64bits(fa) == math.Float64bits(fb) || math.IsNaN(fa) && math.IsNaN(fb)
	}
	return reflect.DeepEqual(a, b)
}

func scalarMatchesOracle(s string) bool {
	got, gerr := parseScalar(s, 1)
	want, werr := strconvFirst(s)
	return (gerr == nil) == (werr == nil) && sameScalar(got, want)
}

// TestParseScalarMatchesStrconvFirst: skipping strconv for scalars that
// cannot be numbers changes no parse, on the quick corpus, on strings
// drawn from the bytes number syntax uses, and on the spellings below.
func TestParseScalarMatchesStrconvFirst(t *testing.T) {
	for _, s := range []string{"0x1p-2", "1_000", "Infinity", ".inf", "-.5", "1e", "nan",
		"+Inf", "-infinity", "NaN", "+nan", "0x_1p0", "0b101", "0o17", "1.5e+3", "5.", "1..2",
		"12.1.1", "0xFFp1", "1_2.5", "+", "-", ".", "e5", "gcc@12.1.1", "1024", "-9223372036854775809",
		"-0", "1E-9", "0x1.8p3", "0X1P-2", "1_000.5", "+INFINITY", fmt.Sprint(math.MaxFloat64)} {
		if !scalarMatchesOracle(s) {
			got, _ := parseScalar(s, 1)
			want, _ := strconvFirst(s)
			t.Errorf("parseScalar(%q) = %#v, strconv first gives %#v", s, got, want)
		}
	}
	if err := quick.Check(scalarMatchesOracle, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	const alphabet = "0123456789+-._eExXpPabcdfABCDFinfINFtyTYaA "
	numberish := &quick.Config{MaxCount: 20000, Rand: rand.New(rand.NewSource(43)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			b := make([]byte, r.Intn(9))
			for i := range b {
				b[i] = alphabet[r.Intn(len(alphabet))]
			}
			args[0] = reflect.ValueOf(string(b))
		}}
	if err := quick.Check(scalarMatchesOracle, numberish); err != nil {
		t.Error(err)
	}
}

package spec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.0", "1.0", 0},
		{"1.0", "2.0", -1},
		{"2.0", "1.0", 1},
		{"1.2", "1.10", -1}, // numeric, not lexicographic
		{"1.2", "1.2.1", -1},
		{"1.2.1", "1.2", 1},
		{"12.1.1", "12.1.1", 0},
		{"2.3.7", "2.3.10", -1},
		{"1.0a", "1.0", 1},     // longer version with alpha suffix orders after its prefix
		{"1.0.a", "1.0.1", -1}, // alpha < numeric at same position
		{"", "1.0", -1},
		{"2022.1.0", "2022.1.0", 0},
	}
	for _, c := range cases {
		got := NewVersion(c.a).Compare(NewVersion(c.b))
		if got != c.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestVersionCompareAntisymmetric(t *testing.T) {
	versions := []string{"", "1", "1.0", "1.0.1", "1.2", "1.10", "2.3.7-gcc12.1.1-magic", "1.0a", "3.23.1"}
	for _, a := range versions {
		for _, b := range versions {
			ab := NewVersion(a).Compare(NewVersion(b))
			ba := NewVersion(b).Compare(NewVersion(a))
			if ab != -ba {
				t.Errorf("Compare(%q,%q)=%d but Compare(%q,%q)=%d", a, b, ab, b, a, ba)
			}
		}
	}
}

// Property: Compare is transitive over randomly generated dotted versions.
func TestQuickVersionTransitive(t *testing.T) {
	gen := func(r *rand.Rand) Version {
		n := 1 + r.Intn(4)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = string(rune('0' + r.Intn(10)))
		}
		return NewVersion(strings.Join(parts, "."))
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated: %s <= %s <= %s but %s > %s", a, b, c, a, c)
		}
	}
}

func TestVersionHasPrefix(t *testing.T) {
	if !NewVersion("1.2.3").HasPrefix(NewVersion("1.2")) {
		t.Error("1.2.3 should have prefix 1.2")
	}
	if NewVersion("1.20.3").HasPrefix(NewVersion("1.2")) {
		t.Error("1.20.3 should NOT have prefix 1.2")
	}
	if !NewVersion("12.1.1").HasPrefix(NewVersion("12.1.1")) {
		t.Error("version should have itself as prefix")
	}
}

func TestVersionRangeContains(t *testing.T) {
	cases := []struct {
		rng, v string
		want   bool
	}{
		{"1.2:1.4", "1.3", true},
		{"1.2:1.4", "1.4.9", true}, // prefix semantics on upper bound
		{"1.2:1.4", "1.5", false},
		{"1.2:1.4", "1.1", false},
		{":2.0", "0.1", true},
		{":2.0", "2.0.1", true},
		{":2.0", "2.1", false},
		{"3.0:", "3.0", true},
		{"3.0:", "99", true},
		{"3.0:", "2.9", false},
		{"1.2", "1.2", true},
		{"1.2", "1.2.5", true}, // @1.2 admits 1.2.5
		{"1.2", "1.3", false},
	}
	for _, c := range cases {
		vl, err := ParseVersionList(c.rng)
		if err != nil {
			t.Fatalf("ParseVersionList(%q): %v", c.rng, err)
		}
		if got := vl.Contains(NewVersion(c.v)); got != c.want {
			t.Errorf("(%q).Contains(%q) = %v, want %v", c.rng, c.v, got, c.want)
		}
	}
}

func TestVersionListParseErrors(t *testing.T) {
	for _, s := range []string{"", ",", "1.2,,1.4", "2.0:1.0"} {
		if _, err := ParseVersionList(s); err == nil {
			t.Errorf("ParseVersionList(%q): expected error", s)
		}
	}
}

func TestVersionListUnion(t *testing.T) {
	vl, err := ParseVersionList("1.0:1.2,2.0")
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range map[string]bool{"1.1": true, "2.0.3": true, "1.5": false, "3.0": false} {
		if got := vl.Contains(NewVersion(v)); got != want {
			t.Errorf("union contains %q = %v, want %v", v, got, want)
		}
	}
}

func TestVersionListConstrain(t *testing.T) {
	a, _ := ParseVersionList("1.0:2.0")
	b, _ := ParseVersionList("1.5:3.0")
	c, err := a.Constrain(b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Contains(NewVersion("1.7")) || c.Contains(NewVersion("1.2")) || c.Contains(NewVersion("2.5")) {
		t.Errorf("constrained = %q", c)
	}

	d, _ := ParseVersionList("3.0:")
	if _, err := a.Constrain(d); err == nil {
		t.Error("disjoint constrain should fail")
	}

	// Constraining with "any" is identity.
	e, err := a.Constrain(VersionList{})
	if err != nil || !reflect.DeepEqual(e, a) {
		t.Errorf("constrain with any: %v %v", e, err)
	}

	// An upper bound admits what carries it as a prefix, so the tighter
	// of "2" and "2.24" is "2.24" — and whatever Constrain returns must
	// render to a list the parser takes back.
	for _, c := range []struct{ a, b, want string }{
		{"2", "2.24", "2.24"},
		{"2.24", "2", "2.24"},
		{"A", ".", "A"},
		{"1:2", "2.4:3", "2.4:2"},
	} {
		a, _ := ParseVersionList(c.a)
		b, _ := ParseVersionList(c.b)
		got, err := a.Constrain(b)
		if err != nil || got.String() != c.want {
			t.Errorf("@%s constrained by @%s = %q, %v; want %q", c.a, c.b, got, err, c.want)
			continue
		}
		if again, err := ParseVersionList(got.String()); err != nil || again.String() != c.want {
			t.Errorf("@%s constrained by @%s renders %q, which re-parses as %q, %v", c.a, c.b, got, again, err)
		}
	}
	x, _ := ParseVersionList("2.3:2")
	y, _ := ParseVersionList("2.1:2.2")
	if x.Intersects(y) {
		t.Error("2.3:2 and 2.1:2.2 share no version")
	}
}

func TestVersionListSatisfiedBy(t *testing.T) {
	point, _ := ParseVersionList("1.2.3")
	rng, _ := ParseVersionList("1.0:2.0")
	if !point.SatisfiedBy(rng) {
		t.Error("1.2.3 should satisfy 1.0:2.0")
	}
	if rng.SatisfiedBy(point) {
		t.Error("1.0:2.0 should not satisfy 1.2.3")
	}
	if !point.SatisfiedBy(VersionList{}) {
		t.Error("anything satisfies the empty constraint")
	}
	if (VersionList{}).SatisfiedBy(point) {
		t.Error("the any-version list cannot satisfy a pin")
	}
}

// Property: for random ranges, Intersects is symmetric and implied by
// a shared contained point.
func TestQuickRangeIntersectSymmetric(t *testing.T) {
	f := func(a1, a2, b1, b2 uint8) bool {
		lo1, hi1 := int(a1%20), int(a2%20)
		lo2, hi2 := int(b1%20), int(b2%20)
		if lo1 > hi1 {
			lo1, hi1 = hi1, lo1
		}
		if lo2 > hi2 {
			lo2, hi2 = hi2, lo2
		}
		r1 := VersionRange{Lo: NewVersion(itoa(lo1)), Hi: NewVersion(itoa(hi1))}
		r2 := VersionRange{Lo: NewVersion(itoa(lo2)), Hi: NewVersion(itoa(hi2))}
		if r1.Intersects(r2) != r2.Intersects(r1) {
			return false
		}
		// ground truth on integer grid
		truth := lo1 <= hi2 && lo2 <= hi1
		return r1.Intersects(r2) == truth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	digits := ""
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return digits
}

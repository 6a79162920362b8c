// Package spec implements the Spack spec language used throughout
// Benchpark: abstract specs written by users ("amg2023+caliper
// %gcc@12.1.1 ^cmake@3.23.1"), and concrete specs produced by the
// concretizer with every choice point resolved.
//
// The package provides the three core relations of the spec algebra:
// Satisfies (refinement), Intersects (compatibility), and Constrain
// (unification), plus parsing, canonical rendering and DAG hashing.
package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is a dotted version identifier such as "12.1.1" or
// "2.3.7-gcc12.1.1-magic". Segments are compared numerically when both
// sides are numeric, lexically otherwise; numeric segments order before
// alphabetic ones ("1.2" < "1.2a" is false: 2 < "a" means numeric first).
type Version struct {
	raw  string
	segs []segment
}

type segment struct {
	num     int64
	str     string
	numeric bool
}

// NewVersion parses a version string. The empty version is allowed and
// compares less than everything else.
func NewVersion(s string) Version {
	v := Version{raw: s}
	if s == "" {
		return v
	}
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		text := cur.String()
		cur.Reset()
		if n, err := strconv.ParseInt(text, 10, 64); err == nil {
			v.segs = append(v.segs, segment{num: n, numeric: true})
		} else {
			v.segs = append(v.segs, segment{str: text})
		}
	}
	prevDigit := false
	for i, r := range s {
		switch {
		case r == '.' || r == '-' || r == '_':
			flush()
			prevDigit = false
		case r >= '0' && r <= '9':
			if i > 0 && !prevDigit && cur.Len() > 0 {
				flush() // letter→digit boundary: "gcc12" → "gcc", "12"
			}
			prevDigit = true
			cur.WriteRune(r)
		default:
			if i > 0 && prevDigit && cur.Len() > 0 {
				flush() // digit→letter boundary: "1a" → "1", "a"
			}
			prevDigit = false
			cur.WriteRune(r)
		}
	}
	flush()
	return v
}

// String returns the original version text.
func (v Version) String() string { return v.raw }

// IsEmpty reports whether the version has no content.
func (v Version) IsEmpty() bool { return v.raw == "" }

// Compare orders versions: -1 if v < w, 0 if equal, +1 if v > w.
// The empty version is the minimum. A version that is a strict prefix
// of another compares less ("1.2" < "1.2.1").
func (v Version) Compare(w Version) int {
	for i := 0; i < len(v.segs) && i < len(w.segs); i++ {
		a, b := v.segs[i], w.segs[i]
		switch {
		case a.numeric && b.numeric:
			if a.num != b.num {
				if a.num < b.num {
					return -1
				}
				return 1
			}
		case a.numeric != b.numeric:
			// Numeric releases order after alphabetic pre-release
			// tags at the same position ("1.0-rc1" < "1.0-1"? keep
			// the simpler convention: numeric > alphabetic).
			if a.numeric {
				return 1
			}
			return -1
		default:
			if a.str != b.str {
				if a.str < b.str {
					return -1
				}
				return 1
			}
		}
	}
	switch {
	case len(v.segs) < len(w.segs):
		return -1
	case len(v.segs) > len(w.segs):
		return 1
	}
	return 0
}

// HasPrefix reports whether p is a dotted-segment prefix of v,
// so NewVersion("1.2.3").HasPrefix(NewVersion("1.2")) is true.
func (v Version) HasPrefix(p Version) bool {
	if len(p.segs) > len(v.segs) {
		return false
	}
	for i, ps := range p.segs {
		vs := v.segs[i]
		if ps.numeric != vs.numeric || ps.num != vs.num || ps.str != vs.str {
			return false
		}
	}
	return true
}

// VersionRange is an inclusive range lo:hi. Empty endpoints are open.
// Spack's prefix semantics apply at the upper bound: "1.2" as an upper
// bound admits "1.2.5". A range with Lo == Hi (the form "@1.2") admits
// exactly the versions having that prefix.
type VersionRange struct {
	Lo, Hi Version
}

// Contains reports whether version x lies within the range.
func (r VersionRange) Contains(x Version) bool {
	if !r.Lo.IsEmpty() {
		if x.Compare(r.Lo) < 0 {
			return false
		}
	}
	if !r.Hi.IsEmpty() {
		if x.Compare(r.Hi) > 0 && !x.HasPrefix(r.Hi) {
			return false
		}
	}
	return true
}

// IsExact reports whether the range designates a single version point
// (possibly with prefix semantics), i.e. it came from "@x.y".
func (r VersionRange) IsExact() bool {
	return !r.Lo.IsEmpty() && r.Lo.raw == r.Hi.raw
}

func (r VersionRange) String() string {
	if r.IsExact() {
		return r.Lo.String()
	}
	return r.Lo.String() + ":" + r.Hi.String()
}

// inverted reports whether the bounds admit nothing: the lower bound
// lies above the upper one and does not carry it as a prefix ("2.24:2"
// is 2.24 and up within the 2 series; "3:2" is empty).
func (r VersionRange) inverted() bool {
	return !r.Lo.IsEmpty() && !r.Hi.IsEmpty() && r.Lo.Compare(r.Hi) > 0 && !r.Lo.HasPrefix(r.Hi)
}

// tighterHi reports whether upper bound a admits fewer versions than
// upper bound b. An upper bound admits everything carrying it as a
// prefix, so "2.24" is tighter than "2" although it compares greater.
func tighterHi(a, b Version) bool {
	if a.HasPrefix(b) || b.HasPrefix(a) {
		return len(a.segs) > len(b.segs)
	}
	return a.Compare(b) < 0
}

// intersect returns the versions r and o share — the higher lower
// bound, the tighter upper bound — and whether there are any.
func (r VersionRange) intersect(o VersionRange) (VersionRange, bool) {
	out := r
	if !o.Lo.IsEmpty() && (out.Lo.IsEmpty() || o.Lo.Compare(out.Lo) > 0) {
		out.Lo = o.Lo
	}
	if !o.Hi.IsEmpty() && (out.Hi.IsEmpty() || tighterHi(o.Hi, out.Hi)) {
		out.Hi = o.Hi
	}
	return out, !out.inverted()
}

// Intersects reports whether two ranges share at least one version.
func (r VersionRange) Intersects(o VersionRange) bool {
	_, ok := r.intersect(o)
	return ok
}

// subsetOf reports whether every version in r is also in o
// (approximated on endpoints, exact for the point ranges that concrete
// specs and package versions use).
func (r VersionRange) subsetOf(o VersionRange) bool {
	if !o.Lo.IsEmpty() {
		if r.Lo.IsEmpty() {
			return false
		}
		if r.Lo.Compare(o.Lo) < 0 {
			return false
		}
	}
	if !o.Hi.IsEmpty() {
		if r.Hi.IsEmpty() {
			return false
		}
		if r.Hi.Compare(o.Hi) > 0 && !r.Hi.HasPrefix(o.Hi) {
			return false
		}
	}
	return true
}

// VersionList is a union of ranges, written "1.2:1.4,2.0" in spec
// syntax. An empty list means "any version".
type VersionList struct {
	Ranges []VersionRange
}

// ParseVersionList parses the text after '@' in a spec.
func ParseVersionList(s string) (VersionList, error) {
	var vl VersionList
	if strings.TrimSpace(s) == "" {
		return vl, fmt.Errorf("spec: empty version constraint after '@'")
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return VersionList{}, fmt.Errorf("spec: empty version in list %q", s)
		}
		if i := strings.IndexByte(part, ':'); i >= 0 {
			r := VersionRange{Lo: NewVersion(part[:i]), Hi: NewVersion(part[i+1:])}
			if r.inverted() {
				return VersionList{}, fmt.Errorf("spec: inverted version range %q", part)
			}
			vl.Ranges = append(vl.Ranges, r)
		} else {
			v := NewVersion(part)
			vl.Ranges = append(vl.Ranges, VersionRange{Lo: v, Hi: v})
		}
	}
	return vl, nil
}

// Any reports whether the list admits all versions (no constraint).
func (vl VersionList) Any() bool { return len(vl.Ranges) == 0 }

// Contains reports whether x satisfies the constraint.
func (vl VersionList) Contains(x Version) bool {
	if vl.Any() {
		return true
	}
	for _, r := range vl.Ranges {
		if r.Contains(x) {
			return true
		}
	}
	return false
}

// Concrete returns the single exact version if the list pins one,
// and ok=false otherwise.
func (vl VersionList) Concrete() (Version, bool) {
	if len(vl.Ranges) == 1 && vl.Ranges[0].IsExact() {
		return vl.Ranges[0].Lo, true
	}
	return Version{}, false
}

// Intersects reports whether the two constraints can both be met.
func (vl VersionList) Intersects(o VersionList) bool {
	if vl.Any() || o.Any() {
		return true
	}
	for _, a := range vl.Ranges {
		for _, b := range o.Ranges {
			if a.Intersects(b) {
				return true
			}
		}
	}
	return false
}

// SatisfiedBy reports whether constraint o is satisfied by vl, i.e.
// every version admitted by vl is admitted by o.
func (vl VersionList) SatisfiedBy(o VersionList) bool {
	if o.Any() {
		return true
	}
	if vl.Any() {
		return false
	}
	for _, a := range vl.Ranges {
		ok := false
		for _, b := range o.Ranges {
			if a.subsetOf(b) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Constrain returns the intersection of the two constraints,
// or an error if they cannot both hold.
func (vl VersionList) Constrain(o VersionList) (VersionList, error) {
	if vl.Any() {
		return o, nil
	}
	if o.Any() {
		return vl, nil
	}
	var out VersionList
	for _, a := range vl.Ranges {
		for _, b := range o.Ranges {
			if both, ok := a.intersect(b); ok {
				out.Ranges = append(out.Ranges, both)
			}
		}
	}
	if out.Any() {
		return VersionList{}, fmt.Errorf("spec: version constraints %q and %q do not intersect", vl, o)
	}
	return out, nil
}

func (vl VersionList) String() string {
	if vl.Any() {
		return ""
	}
	parts := make([]string, len(vl.Ranges))
	for i, r := range vl.Ranges {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

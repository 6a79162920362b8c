// Package yamlite implements a YAML subset sufficient for every
// configuration file that appears in the Benchpark paper: nested
// block mappings, block sequences, inline flow sequences and mappings,
// quoted and plain scalars, and '#' comments.
//
// It exists because Benchpark's entire surface area is YAML
// (spack.yaml, packages.yaml, compilers.yaml, variables.yaml,
// ramble.yaml, .gitlab-ci.yml) and this module is stdlib-only.
//
// Mappings preserve key order (a *Map), which keeps emitted
// manifests and lockfiles stable and diffable — a data-integrity
// requirement from Section 2 of the paper. A Map is one slice of
// key/value pairs in insertion order, and Get, Has and Set scan it:
// a configuration mapping holds a few dozen keys at most, and at that
// size a scan is cheaper than hashing and a slice costs one
// allocation where a Go map costs several.
package yamlite

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is any parsed YAML value: nil, bool, int64, float64, string,
// *Map, or []Value.
type Value any

// Map is an order-preserving string-keyed mapping.
// The zero value is an empty map ready to use.
type Map struct {
	pairs []pair // in insertion order, keys distinct
}

type pair struct {
	key string
	val Value
}

// NewMap returns an empty ordered map.
func NewMap() *Map { return &Map{} }

// MapOf builds a Map from alternating key, value pairs.
// It panics if given an odd number of arguments or a non-string key.
func MapOf(pairs ...any) *Map {
	if len(pairs)%2 != 0 {
		panic("yamlite.MapOf: odd number of arguments")
	}
	m := &Map{pairs: make([]pair, 0, len(pairs)/2)}
	for i := 0; i < len(pairs); i += 2 {
		k, ok := pairs[i].(string)
		if !ok {
			panic("yamlite.MapOf: key is not a string")
		}
		m.Set(k, pairs[i+1])
	}
	return m
}

// Len reports the number of keys.
func (m *Map) Len() int {
	if m == nil {
		return 0
	}
	return len(m.pairs)
}

// Keys returns the keys in insertion order.
func (m *Map) Keys() []string {
	if m == nil {
		return nil
	}
	out := make([]string, len(m.pairs))
	for i, p := range m.pairs {
		out[i] = p.key
	}
	return out
}

// index returns the position of key in m.pairs, or -1.
func (m *Map) index(key string) int {
	if m == nil {
		return -1
	}
	for i := range m.pairs {
		if m.pairs[i].key == key {
			return i
		}
	}
	return -1
}

// Has reports whether key is present.
func (m *Map) Has(key string) bool { return m.index(key) >= 0 }

// Get returns the value for key, or nil if absent.
func (m *Map) Get(key string) Value {
	if i := m.index(key); i >= 0 {
		return m.pairs[i].val
	}
	return nil
}

// Set stores key=v, appending key to the order if new.
func (m *Map) Set(key string, v Value) {
	if i := m.index(key); i >= 0 {
		m.pairs[i].val = v
		return
	}
	m.pairs = append(m.pairs, pair{key, v})
}

// GetMap returns the nested map at key, or nil if absent or not a map.
func (m *Map) GetMap(key string) *Map {
	v, _ := m.Get(key).(*Map)
	return v
}

// GetSlice returns the sequence at key, or nil.
func (m *Map) GetSlice(key string) []Value {
	v, _ := m.Get(key).([]Value)
	return v
}

// GetString returns the string at key, or "" if absent.
// Non-string scalars are rendered to their canonical string form.
func (m *Map) GetString(key string) string {
	v := m.Get(key)
	if v == nil {
		return ""
	}
	return ScalarString(v)
}

// GetStrings returns the sequence at key coerced to strings.
// A single scalar is returned as a one-element slice.
func (m *Map) GetStrings(key string) []string {
	switch v := m.Get(key).(type) {
	case nil:
		return nil
	case []Value:
		out := make([]string, 0, len(v))
		for _, e := range v {
			out = append(out, ScalarString(e))
		}
		return out
	default:
		return []string{ScalarString(v)}
	}
}

// GetBool returns the boolean at key, defaulting to def when absent
// or not interpretable as a bool.
func (m *Map) GetBool(key string, def bool) bool {
	switch v := m.Get(key).(type) {
	case bool:
		return v
	case string:
		switch strings.ToLower(v) {
		case "true", "yes", "on":
			return true
		case "false", "no", "off":
			return false
		}
	}
	return def
}

// Merge deep-merges src into m: nested maps merge recursively,
// everything else (including sequences) is replaced by src's value.
// This mirrors Spack's configuration-scope precedence. src's values
// move into m rather than being copied, so m may now hold src's
// nested maps and sequences: src must not be used afterwards.
func (m *Map) Merge(src *Map) {
	if src == nil {
		return
	}
	for _, p := range src.pairs {
		dstMap, ok := m.Get(p.key).(*Map)
		if srcMap, ok2 := p.val.(*Map); ok && ok2 {
			dstMap.Merge(srcMap)
			continue
		}
		m.Set(p.key, p.val)
	}
}

// ScalarString renders a scalar value the way YAML would print it.
func ScalarString(v Value) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case bool:
		if t {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", t)
	}
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

type line struct {
	num    int // 1-based source line
	indent int
	text   string // content with indent and trailing comment stripped
	raw    string // original line (trailing \r/space removed), for block scalars
	skip   bool   // blank or comment-only: invisible to the structure parser
}

// ParseError describes a syntax error with its source line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("yamlite: line %d: %s", e.Line, e.Msg)
}

func errf(n int, format string, args ...any) error {
	return &ParseError{Line: n, Msg: fmt.Sprintf(format, args...)}
}

// Parse parses src and returns its root value
// (a *Map, []Value, or scalar).
func Parse(src string) (Value, error) {
	lines, err := splitLines(src)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return NewMap(), nil
	}
	p := &parser{lines: lines}
	v, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, errf(p.lines[p.pos].num, "unexpected content %q", p.lines[p.pos].text)
	}
	return v, nil
}

// ParseMap parses src and requires the root to be a mapping.
func ParseMap(src string) (*Map, error) {
	v, err := Parse(src)
	if err != nil {
		return nil, err
	}
	m, ok := v.(*Map)
	if !ok {
		return nil, fmt.Errorf("yamlite: document root is %T, not a mapping", v)
	}
	return m, nil
}

func splitLines(src string) ([]line, error) {
	out := make([]line, 0, strings.Count(src, "\n")+1)
	for num, rest, more := 1, src, true; more; num++ {
		var rawLine string
		rawLine, rest, more = strings.Cut(rest, "\n")
		raw := strings.TrimRight(rawLine, " \r")
		if strings.TrimSpace(raw) == "---" {
			continue // document start marker
		}
		txt := stripComment(rawLine)
		trimmed := strings.TrimLeft(txt, " \t")
		if strings.TrimSpace(trimmed) == "" {
			// Blank or comment-only: invisible to the structure parser
			// but preserved for block-scalar content.
			out = append(out, line{num: num, raw: raw, skip: true})
			continue
		}
		indent := len(txt) - len(trimmed)
		if strings.Contains(txt[:indent], "\t") {
			return nil, errf(num, "tabs are not allowed in indentation")
		}
		out = append(out, line{
			num: num, indent: indent,
			text: strings.TrimRight(trimmed, " \r"),
			raw:  raw,
		})
	}
	return out, nil
}

// stripComment removes a trailing '# ...' comment that is not inside quotes.
func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if inS || inD {
				continue
			}
			// YAML comments must be at start or preceded by whitespace.
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

type parser struct {
	lines []line
	pos   int
}

// peek advances past structure-invisible lines (blank/comment-only)
// and returns the next significant line without consuming it.
func (p *parser) peek() (line, bool) {
	for p.pos < len(p.lines) && p.lines[p.pos].skip {
		p.pos++
	}
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	return p.lines[p.pos], true
}

// parseBlock parses a block (map or sequence) whose entries all sit
// at exactly the given indent.
func (p *parser) parseBlock(indent int) (Value, error) {
	ln, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("yamlite: unexpected end of document")
	}
	if ln.indent != indent {
		return nil, errf(ln.num, "bad indentation (got %d, want %d)", ln.indent, indent)
	}
	if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *parser) parseMapping(indent int) (Value, error) {
	m := NewMap()
	for {
		ln, ok := p.peek()
		if !ok || ln.indent < indent {
			return m, nil
		}
		if ln.indent > indent {
			return nil, errf(ln.num, "unexpected indent %d inside mapping at indent %d", ln.indent, indent)
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, errf(ln.num, "sequence entry inside mapping")
		}
		key, rest, err := splitKey(ln)
		if err != nil {
			return nil, err
		}
		if m.Has(key) {
			return nil, errf(ln.num, "duplicate key %q", key)
		}
		p.pos++
		var v Value
		switch {
		case rest == "|" || rest == "|-" || rest == ">" || rest == ">-":
			v, err = p.parseBlockScalar(indent, rest)
		case rest != "":
			v, err = parseScalar(rest, ln.num)
		default:
			// Value is a nested block (or empty). A block sequence may sit
			// at the same indent as its parent key (common YAML style).
			next, ok := p.peek()
			if ok && next.indent == indent && (strings.HasPrefix(next.text, "- ") || next.text == "-") {
				v, err = p.parseSequence(indent)
			} else if ok && next.indent > indent {
				v, err = p.parseBlock(next.indent)
			}
		}
		if err != nil {
			return nil, err
		}
		m.pairs = append(m.pairs, pair{key, v}) // not a duplicate: checked above
	}
}

func (p *parser) parseSequence(indent int) (Value, error) {
	var seq []Value
	for {
		ln, ok := p.peek()
		if !ok || ln.indent != indent || !(strings.HasPrefix(ln.text, "- ") || ln.text == "-") {
			if ok && ln.indent > indent {
				return nil, errf(ln.num, "unexpected indent inside sequence")
			}
			return seq, nil
		}
		rest := strings.TrimPrefix(ln.text, "-")
		rest = strings.TrimPrefix(rest, " ")
		// The content after "- " behaves as if indented at dash+2.
		entryIndent := indent + 2
		if rest == "" {
			p.pos++
			next, ok := p.peek()
			if !ok || next.indent <= indent {
				seq = append(seq, nil)
				continue
			}
			v, err := p.parseBlock(next.indent)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		if _, _, err := splitKey(line{num: ln.num, text: rest}); err == nil {
			// "- key: value" starts an inline mapping entry; following
			// lines indented deeper than the dash extend it.
			p.lines[p.pos] = line{num: ln.num, indent: entryIndent, text: rest}
			v, err2 := p.parseMapping(entryIndent)
			if err2 != nil {
				return nil, err2
			}
			seq = append(seq, v)
			continue
		}
		p.pos++
		v, err := parseScalar(rest, ln.num)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
}

// parseBlockScalar consumes the lines of a block scalar ("|", "|-",
// ">", ">-") that follow a "key: |" header at the given key indent.
// Subset limitations: blank interior lines and relative indentation
// within the block are not preserved (adequate for the script blocks
// of .gitlab-ci.yml).
func (p *parser) parseBlockScalar(keyIndent int, marker string) (Value, error) {
	// Consume raw lines (including blank and '#' lines, which are
	// content inside a block) until a significant line at or above the
	// key's indent ends the block. The first content line fixes the
	// block's base indentation.
	var lines []string
	base := -1
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.skip {
			if strings.TrimSpace(ln.raw) == "" {
				// Blank line inside (or after) the block; keep it only
				// if more block content follows.
				lines = append(lines, "")
				p.pos++
				continue
			}
			// Comment-only source line: inside a block it is content.
			rawTrim := strings.TrimLeft(ln.raw, " ")
			ind := len(ln.raw) - len(rawTrim)
			if ind <= keyIndent {
				break
			}
			if base < 0 {
				base = ind
			}
			lines = append(lines, blockSlice(ln.raw, base))
			p.pos++
			continue
		}
		if ln.indent <= keyIndent {
			break
		}
		if base < 0 {
			base = ln.indent
		}
		lines = append(lines, blockSlice(ln.raw, base))
		p.pos++
	}
	// Trailing blank lines belong to the document, not the block.
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	sep := "\n"
	if marker == ">" || marker == ">-" {
		sep = " "
	}
	out := strings.Join(lines, sep)
	if (marker == "|" || marker == ">") && len(lines) > 0 {
		out += "\n"
	}
	return out, nil
}

// blockSlice removes up to base leading spaces from a raw block line,
// preserving deeper relative indentation.
func blockSlice(raw string, base int) string {
	i := 0
	for i < len(raw) && i < base && raw[i] == ' ' {
		i++
	}
	return raw[i:]
}

// splitKey splits "key: rest" handling quoted keys and inline flow values.
func splitKey(ln line) (key, rest string, err error) {
	s := ln.text
	if len(s) > 0 && (s[0] == '\'' || s[0] == '"') {
		j := closeQuote(s)
		if j < 0 {
			return "", "", errf(ln.num, "unterminated quoted key")
		}
		key = unquote(s[:j+1])
		s2 := strings.TrimLeft(s[j+1:], " ")
		if !strings.HasPrefix(s2, ":") {
			return "", "", errf(ln.num, "expected ':' after quoted key")
		}
		rest = strings.TrimSpace(s2[1:])
		return key, rest, nil
	}
	// Find a ':' that is followed by space/EOL and not inside brackets/quotes.
	depth := 0
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case inS || inD:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0:
			if i+1 == len(s) || s[i+1] == ' ' {
				key = strings.TrimSpace(s[:i])
				rest = strings.TrimSpace(s[i+1:])
				if key == "" {
					return "", "", errf(ln.num, "empty mapping key")
				}
				return key, rest, nil
			}
		}
	}
	return "", "", errf(ln.num, "not a mapping entry: %q", s)
}

// closeQuote returns the index of the quote that closes the quoted
// scalar s opens, or -1: inside single quotes a doubled quote stands
// for one, inside double quotes a backslash escapes the next byte.
func closeQuote(s string) int {
	q := s[0]
	for i := 1; i < len(s); i++ {
		switch {
		case q == '"' && s[i] == '\\':
			i++
		case s[i] == q && q == '\'' && i+1 < len(s) && s[i+1] == '\'':
			i++
		case s[i] == q:
			return i
		}
	}
	return -1
}

// unquote returns the value of s, a scalar wrapped in matching quotes.
func unquote(s string) string {
	body := s[1 : len(s)-1]
	if s[0] == '\'' {
		return strings.ReplaceAll(body, "''", "'")
	}
	return unescapeDouble(body)
}

// parseScalar parses an inline value: quoted string, flow seq/map,
// number, bool, null, or plain string.
func parseScalar(s string, num int) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case s[0] == '\'' || s[0] == '"':
		q := s[0]
		if len(s) < 2 || s[len(s)-1] != q {
			return nil, errf(num, "unterminated quoted string %q", s)
		}
		return unquote(s), nil
	case s[0] == '[':
		return parseFlowSeq(s, num)
	case s[0] == '{':
		return parseFlowMap(s, num)
	}
	switch s {
	case "null", "~", "Null", "NULL":
		return nil, nil
	case "true", "True", "TRUE":
		return true, nil
	case "false", "False", "FALSE":
		return false, nil
	}
	if !couldBeNumber(s) {
		return s, nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return n, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

// couldBeNumber reports, without allocating, whether strconv.ParseInt
// or strconv.ParseFloat might accept s; a strconv call that fails
// allocates its *NumError. It admits signs, then an inf, infinity or
// nan spelling, or a digit or '.' followed only by bytes a decimal or
// hexadecimal float can hold ('_' included) with at most one '.'.
func couldBeNumber(s string) bool {
	s = strings.TrimLeft(s, "+-")
	if strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan") {
		return true
	}
	return s != "" && ('0' <= s[0] && s[0] <= '9' || s[0] == '.') && strings.Count(s, ".") <= 1 &&
		strings.Trim(s, "0123456789abcdefABCDEFxXpP_+-.") == ""
}

func unescapeDouble(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			default:
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// splitFlow splits the body of a flow collection on top-level commas.
func splitFlow(body string, num int) ([]string, error) {
	var parts []string
	depth := 0
	inS, inD := false, false
	start := 0
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case inS || inD:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
			if depth < 0 {
				return nil, errf(num, "unbalanced brackets in flow collection")
			}
		case c == ',' && depth == 0:
			parts = append(parts, body[start:i])
			start = i + 1
		}
	}
	if depth != 0 || inS || inD {
		return nil, errf(num, "unterminated flow collection")
	}
	parts = append(parts, body[start:])
	return parts, nil
}

func parseFlowSeq(s string, num int) (Value, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, errf(num, "unterminated flow sequence %q", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	if body == "" {
		return []Value{}, nil
	}
	parts, err := splitFlow(body, num)
	if err != nil {
		return nil, err
	}
	out := make([]Value, 0, len(parts))
	for _, part := range parts {
		v, err := parseScalar(strings.TrimSpace(part), num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFlowMap(s string, num int) (Value, error) {
	if !strings.HasSuffix(s, "}") {
		return nil, errf(num, "unterminated flow mapping %q", s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	m := NewMap()
	if body == "" {
		return m, nil
	}
	parts, err := splitFlow(body, num)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		key, rest, err := splitKey(line{num: num, text: strings.TrimSpace(part)})
		if err != nil {
			return nil, err
		}
		if m.Has(key) {
			return nil, errf(num, "duplicate key %q", key)
		}
		v, err := parseScalar(rest, num)
		if err != nil {
			return nil, err
		}
		m.Set(key, v)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

// Marshal renders v as YAML text ending in a newline
// (or "" for an empty document).
func Marshal(v Value) string {
	var b strings.Builder
	emit(&b, v, 0, false)
	return b.String()
}

func emit(b *strings.Builder, v Value, indent int, inSeq bool) {
	pad := strings.Repeat(" ", indent)
	switch t := v.(type) {
	case *Map:
		if t.Len() == 0 {
			b.WriteString(pad + "{}\n")
			return
		}
		for i, kv := range t.pairs {
			p := pad
			if inSeq && i == 0 {
				p = "" // caller already wrote "- "
			}
			k, val := kv.key, kv.val
			switch vv := val.(type) {
			case *Map:
				if vv.Len() == 0 {
					b.WriteString(p + emitKey(k) + ": {}\n")
				} else {
					b.WriteString(p + emitKey(k) + ":\n")
					emit(b, vv, indent+2, false)
				}
			case []Value:
				if len(vv) == 0 {
					b.WriteString(p + emitKey(k) + ": []\n")
				} else {
					b.WriteString(p + emitKey(k) + ":\n")
					emit(b, vv, indent, false)
				}
			default:
				b.WriteString(p + emitKey(k) + ": " + emitScalar(val) + "\n")
			}
		}
	case []Value:
		for _, e := range t {
			switch ev := e.(type) {
			case *Map:
				b.WriteString(pad + "- ")
				emit(b, ev, indent+2, true)
			case []Value:
				b.WriteString(pad + "-\n")
				emit(b, ev, indent+2, false)
			default:
				b.WriteString(pad + "- " + emitScalar(e) + "\n")
			}
		}
	default:
		b.WriteString(pad + emitScalar(v) + "\n")
	}
}

func emitKey(k string) string {
	if needsQuote(k) {
		return "'" + strings.ReplaceAll(k, "'", "''") + "'"
	}
	return k
}

func emitScalar(v Value) string {
	s, ok := v.(string)
	if !ok {
		if v == nil {
			return "null"
		}
		return ScalarString(v)
	}
	if needsQuote(s) {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}

// needsQuote reports whether a plain string would be misparsed
// (as a number, bool, flow collection, comment, etc.) without quotes.
func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	switch s {
	case "null", "~", "true", "false", "True", "False", "Null":
		return true
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return true
	}
	if strings.ContainsAny(s, ":#[]{},'\"\n") {
		// ':' only matters before a space or at end, but quote conservatively.
		if strings.Contains(s, ": ") || strings.HasSuffix(s, ":") ||
			strings.ContainsAny(s, "#[]{}'\"\n") || strings.HasPrefix(s, ",") {
			return true
		}
	}
	// The parser trims with strings.TrimSpace, Unicode spaces included,
	// so an edge space of any kind survives only inside quotes.
	if strings.HasPrefix(s, "- ") || strings.TrimSpace(s) != s ||
		strings.HasPrefix(s, "&") || strings.HasPrefix(s, "*") || strings.HasPrefix(s, "!") ||
		strings.HasPrefix(s, "%") || strings.HasPrefix(s, "@") || strings.HasPrefix(s, "|") ||
		strings.HasPrefix(s, ">") {
		return true
	}
	return false
}

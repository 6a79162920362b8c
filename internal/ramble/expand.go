// Package ramble is the experimentation framework of Section 3.2:
// applications declare how experiments are created (executables,
// workloads, variables, figures of merit, success criteria), and a
// workspace turns a concise YAML configuration into a concrete set of
// experiments — expanding variables, crossing matrices, rendering
// batch-script templates — and extracts metrics from their outputs.
// Running an experiment is left to the caller (core.Session.Run),
// which fills each one's Output, Elapsed and Status.
//
// The five-command workflow of Figure 5 maps to:
//
//	ramble workspace create  -> NewWorkspace
//	ramble workspace edit    -> Workspace.Configure (ramble.yaml)
//	ramble workspace setup   -> Workspace.Setup
//	ramble on                -> core.Session.Run
//	ramble workspace analyze -> Workspace.Analyze
package ramble

import (
	"fmt"
	"strconv"
	"strings"
)

// Expander substitutes {variable} references in templates, with
// recursive expansion and simple arithmetic ({a}*{b} inside one brace
// pair: {n_nodes*processes_per_node}). Each variable's successful
// expansion is remembered until a Set of a variable it read, so a
// variable reached through many templates is expanded once; an
// Expander is therefore not safe for concurrent use.
type Expander struct {
	vars map[string]string
	memo map[string]expansion
}

// expansion is a variable's fully expanded value and its height: how
// many levels of variable values expanding a reference to it descends
// through (1 for a variable holding plain text). The depth rule is
// decided from the height, so it answers the same whether the value
// comes from the memo or is expanded afresh, whatever the order of
// Expand calls.
type expansion struct {
	value  string
	height int
}

// NewExpander returns an expander over the given variables. The
// expander keeps the map; later writes to it go through Set.
func NewExpander(vars map[string]string) *Expander {
	return &Expander{vars: vars}
}

// Set defines or overrides a variable. The remembered expansions are
// dropped only when name is one of them: every variable a successful
// expansion reads is remembered itself (a failure is never
// remembered), so a name the memo does not hold fed none of it —
// buildExperiment's Sets of experiment_name, experiment_run_dir and
// command keep what the name template expanded.
func (e *Expander) Set(name, value string) {
	if e.vars == nil {
		e.vars = map[string]string{}
	}
	e.vars[name] = value
	if _, ok := e.memo[name]; ok {
		clear(e.memo)
	}
}

const maxDepth = 32

// Expand substitutes all {…} references in s. Unknown variables are
// an error, as is unbounded recursion.
func (e *Expander) Expand(s string) (string, error) {
	out, _, err := e.expand(s, 0)
	return out, err
}

// ExpandVar returns Expand("{"+name+"}"): the same value and the same
// error. A name the tokenizer keeps whole — non-empty, trimmed, with
// none of " *+-/{}" — is resolved directly, without building the
// template or copying the value out of it.
func (e *Expander) ExpandVar(name string) (string, error) {
	if name == "" || strings.TrimSpace(name) != name || strings.ContainsAny(name, " *+-/{}") {
		return e.Expand("{" + name + "}")
	}
	val, _, err := e.resolveToken(name, 0)
	return val, err
}

func depthError(s string) error {
	return fmt.Errorf("ramble: expansion depth exceeded (circular variable reference?) in %q", s)
}

// expand returns s expanded at the given depth and the height of s:
// 0 without a reference, else one more than the tallest variable
// referenced. depth+height is the deepest level the expansion reaches.
func (e *Expander) expand(s string, depth int) (string, int, error) {
	if depth > maxDepth {
		return "", 0, depthError(s)
	}
	if strings.IndexByte(s, '{') < 0 {
		return s, 0, nil
	}
	var b strings.Builder
	height := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c != '{' {
			b.WriteByte(c)
			i++
			continue
		}
		// find matching close brace (no nesting inside a reference)
		j := strings.IndexByte(s[i:], '}')
		if j < 0 {
			return "", 0, fmt.Errorf("ramble: unbalanced '{' in %q", s)
		}
		expr := s[i+1 : i+j]
		val, h, err := e.eval(expr, depth)
		if err != nil {
			return "", 0, err
		}
		height = max(height, h)
		b.WriteString(val)
		i += j + 1
	}
	return b.String(), height, nil
}

// eval resolves one brace expression: a variable name, a numeric
// literal, or a left-to-right arithmetic chain a*b+c over variables
// and literals (*, /, +, -, // for integer division).
func (e *Expander) eval(expr string, depth int) (string, int, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return "", 0, fmt.Errorf("ramble: empty expansion {}")
	}
	tokens, err := tokenizeExpr(expr)
	if err != nil {
		return "", 0, err
	}
	if len(tokens) == 1 {
		return e.resolveToken(tokens[0], depth)
	}
	// arithmetic chain: operand (op operand)*
	acc, height, err := e.numericToken(tokens[0], depth)
	if err != nil {
		return "", 0, err
	}
	for i := 1; i < len(tokens); i += 2 {
		if i+1 >= len(tokens) {
			return "", 0, fmt.Errorf("ramble: trailing operator in {%s}", expr)
		}
		rhs, h, err := e.numericToken(tokens[i+1], depth)
		if err != nil {
			return "", 0, err
		}
		height = max(height, h)
		switch tokens[i] {
		case "*":
			acc *= rhs
		case "+":
			acc += rhs
		case "-":
			acc -= rhs
		case "/":
			if rhs == 0 {
				return "", 0, fmt.Errorf("ramble: division by zero in {%s}", expr)
			}
			acc /= rhs
		case "//":
			if rhs == 0 {
				return "", 0, fmt.Errorf("ramble: division by zero in {%s}", expr)
			}
			acc = float64(int64(acc) / int64(rhs))
		default:
			return "", 0, fmt.Errorf("ramble: bad operator %q in {%s}", tokens[i], expr)
		}
	}
	return formatNumber(acc), height, nil
}

func (e *Expander) resolveToken(tok string, depth int) (string, int, error) {
	if isNumber(tok) {
		return tok, 0, nil
	}
	if m, ok := e.memo[tok]; ok {
		if depth+m.height > maxDepth {
			return "", 0, depthError(e.vars[tok])
		}
		return m.value, m.height, nil
	}
	raw, ok := e.vars[tok]
	if !ok {
		return "", 0, fmt.Errorf("ramble: undefined variable %q", tok)
	}
	val, h, err := e.expand(raw, depth+1)
	if err != nil {
		return "", 0, err
	}
	if e.memo == nil {
		e.memo = make(map[string]expansion, len(e.vars))
	}
	e.memo[tok] = expansion{val, h + 1}
	return val, h + 1, nil
}

func (e *Expander) numericToken(tok string, depth int) (float64, int, error) {
	s, h, err := e.resolveToken(tok, depth)
	if err != nil {
		return 0, 0, err
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("ramble: %q = %q is not numeric", tok, s)
	}
	return f, h, nil
}

// tokenizeExpr splits "a*b + 3" into operands and operators.
func tokenizeExpr(expr string) ([]string, error) {
	var tokens []string
	i := 0
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == ' ':
			i++
		case c == '*' || c == '+' || c == '-' || c == '/':
			// Allow '//' integer division.
			if c == '/' && i+1 < len(expr) && expr[i+1] == '/' {
				tokens = append(tokens, "//")
				i += 2
			} else {
				tokens = append(tokens, string(c))
				i++
			}
		default:
			j := i
			for j < len(expr) && expr[j] != ' ' && expr[j] != '*' && expr[j] != '+' &&
				expr[j] != '-' && expr[j] != '/' {
				j++
			}
			tokens = append(tokens, expr[i:j])
			i = j
		}
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("ramble: empty expression")
	}
	return tokens, nil
}

// isNumber reports whether s is a decimal literal —
// [+-]digits[.digits][e[+-]digits], with ".5" and "5." allowed —
// and not a variable name: "inf", "nan", hex and underscore forms,
// which strconv.ParseFloat would take, are names.
func isNumber(s string) bool {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := func() int {
		start := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i - start
	}
	mantissa := digits()
	if i < len(s) && s[i] == '.' {
		i++
		mantissa += digits()
	}
	if mantissa == 0 {
		return false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if digits() == 0 {
			return false
		}
	}
	return i == len(s)
}

func formatNumber(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

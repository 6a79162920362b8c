package ramble

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// oracle is the expander as it was before it remembered anything:
// every reference re-expands its whole chain, and the depth-32 rule is
// the recursion's own. It shares isNumber, tokenizeExpr and
// formatNumber with the product and nothing else, and gives up
// (errBudget) on inputs whose memo-less expansion is exponential.
type oracle struct {
	vars  map[string]string
	steps int
}

var errBudget = errors.New("oracle: expansion budget exhausted")

func (o *oracle) Expand(s string) (string, error) {
	o.steps = 0
	return o.expand(s, 0)
}

func (o *oracle) expand(s string, depth int) (string, error) {
	if o.steps += 1 + len(s); o.steps > 1<<20 {
		return "", errBudget
	}
	if depth > maxDepth {
		return "", fmt.Errorf("depth exceeded in %q", s)
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		c := s[i]
		if c != '{' {
			b.WriteByte(c)
			i++
			continue
		}
		j := strings.IndexByte(s[i:], '}')
		if j < 0 {
			return "", fmt.Errorf("unbalanced '{' in %q", s)
		}
		val, err := o.eval(s[i+1:i+j], depth)
		if err != nil {
			return "", err
		}
		b.WriteString(val)
		i += j + 1
	}
	return b.String(), nil
}

func (o *oracle) eval(expr string, depth int) (string, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return "", fmt.Errorf("empty expansion {}")
	}
	tokens, err := tokenizeExpr(expr)
	if err != nil {
		return "", err
	}
	if len(tokens) == 1 {
		return o.resolveToken(tokens[0], depth)
	}
	acc, err := o.numericToken(tokens[0], depth)
	if err != nil {
		return "", err
	}
	for i := 1; i < len(tokens); i += 2 {
		if i+1 >= len(tokens) {
			return "", fmt.Errorf("trailing operator in {%s}", expr)
		}
		rhs, err := o.numericToken(tokens[i+1], depth)
		if err != nil {
			return "", err
		}
		switch tokens[i] {
		case "*":
			acc *= rhs
		case "+":
			acc += rhs
		case "-":
			acc -= rhs
		case "/":
			if rhs == 0 {
				return "", fmt.Errorf("division by zero in {%s}", expr)
			}
			acc /= rhs
		case "//":
			if rhs == 0 {
				return "", fmt.Errorf("division by zero in {%s}", expr)
			}
			acc = float64(int64(acc) / int64(rhs))
		default:
			return "", fmt.Errorf("bad operator %q in {%s}", tokens[i], expr)
		}
	}
	return formatNumber(acc), nil
}

func (o *oracle) resolveToken(tok string, depth int) (string, error) {
	if isNumber(tok) {
		return tok, nil
	}
	raw, ok := o.vars[tok]
	if !ok {
		return "", fmt.Errorf("undefined variable %q", tok)
	}
	return o.expand(raw, depth+1)
}

func (o *oracle) numericToken(tok string, depth int) (float64, error) {
	s, err := o.resolveToken(tok, depth)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("%q = %q is not numeric", tok, s)
	}
	return f, nil
}

// agree checks one Expand against the oracle: the same value and the
// same success or failure. It reports false when the oracle gave up.
func agree(t *testing.T, ex *Expander, o *oracle, tpl, when string) bool {
	t.Helper()
	want, werr := o.Expand(tpl)
	if werr == errBudget {
		return false
	}
	got, gerr := ex.Expand(tpl)
	if (gerr == nil) != (werr == nil) || got != want {
		t.Errorf("%s: Expand(%q) = %q, %v; the memo-less expander gives %q, %v", when, tpl, got, gerr, want, werr)
	}
	return true
}

// graph draws a seeded variable table: a chain of 1–40 links (the
// depth rule fails it from the head but not from the middle once it
// passes 32), arithmetic over it, free references that may form
// cycles, and undefined names.
func graph(rng *rand.Rand) map[string]string {
	vars := map[string]string{}
	chain := 1 + rng.Intn(40)
	for i := 0; i < chain-1; i++ {
		vars[fmt.Sprintf("c%d", i)] = fmt.Sprintf("{c%d}", i+1)
	}
	vars[fmt.Sprintf("c%d", chain-1)] = strconv.Itoa(1 + rng.Intn(9))
	names := func() string {
		switch n := rng.Intn(10); {
		case n < 4:
			return fmt.Sprintf("c%d", rng.Intn(chain))
		case n < 9:
			return fmt.Sprintf("v%d", rng.Intn(8))
		}
		return "undefined"
	}
	for i := 0; i < 8; i++ {
		var val string
		switch rng.Intn(5) {
		case 0:
			val = strconv.Itoa(rng.Intn(100))
		case 1:
			val = "text " + strconv.Itoa(i)
		case 2:
			val = fmt.Sprintf("{%s%s%s}", names(), []string{"*", "+", "-", "/", "//"}[rng.Intn(5)], names())
		case 3:
			val = fmt.Sprintf("{%s*2+%s}", names(), names())
		default:
			val = fmt.Sprintf("a {%s} b {%s}", names(), names())
		}
		vars[fmt.Sprintf("v%d", i)] = val
	}
	return vars
}

// TestExpanderAgreesWithMemolessOracle: on seeded variable graphs every
// variable, expanded in three different orders, has the value and the
// success or failure the memo-less expander gives it — what the memo
// holds from earlier calls never shows — and a Set between two Expands
// is honoured.
func TestExpanderAgreesWithMemolessOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for g := 0; g < 300; g++ {
		vars := graph(rng)
		names := make([]string, 0, len(vars))
		for k := range vars {
			names = append(names, k)
		}
		sort.Strings(names)
		o := &oracle{vars: vars}
		for pass, order := range [][]int{ascending(len(names)), descending(len(names)), rng.Perm(len(names))} {
			ex := NewExpander(maps.Clone(vars))
			for _, i := range order {
				agree(t, ex, o, "{"+names[i]+"}", fmt.Sprintf("graph %d pass %d", g, pass))
			}
			agree(t, ex, o, "x{c0}y{v0}{v1*v2}", fmt.Sprintf("graph %d pass %d", g, pass))

			// Redefine one variable under the warm memo.
			name := names[rng.Intn(len(names))]
			value := []string{"7", "{c0}", "{v3+1}", "{undefined}", "plain"}[rng.Intn(5)]
			ex.Set(name, value)
			changed := maps.Clone(vars)
			changed[name] = value
			o2 := &oracle{vars: changed}
			for _, i := range order {
				agree(t, ex, o2, "{"+names[i]+"}", fmt.Sprintf("graph %d pass %d after Set(%s, %q)", g, pass, name, value))
			}
		}
	}
}

func ascending(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func descending(n int) []int {
	out := ascending(n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

// TestDepthRuleIsOrderIndependent is the case the height is kept for: a
// 40-link chain fails from its head and succeeds from link 10, whether
// or not link 10 is already remembered.
func TestDepthRuleIsOrderIndependent(t *testing.T) {
	vars := map[string]string{"c39": "5"}
	for i := 0; i < 39; i++ {
		vars[fmt.Sprintf("c%d", i)] = fmt.Sprintf("{c%d}", i+1)
	}
	for _, order := range [][]string{{"c0", "c10", "c0", "c8", "c7"}, {"c10", "c0", "c8", "c7", "c0"}, {"c39", "c20", "c0", "c7", "c8"}} {
		ex := NewExpander(maps.Clone(vars))
		for _, name := range order {
			got, err := ex.Expand("{" + name + "}")
			n, _ := strconv.Atoi(name[1:])
			if wantOK := 40-n <= maxDepth; (err == nil) != wantOK || (wantOK && got != "5") {
				t.Errorf("order %v: Expand({%s}) = %q, %v; want success=%v", order, name, got, err, wantOK)
			}
		}
	}
}

// TestIsNumber: a token is a literal only if it is a decimal one;
// everything else strconv.ParseFloat would accept is a variable name.
func TestIsNumber(t *testing.T) {
	for _, s := range []string{
		// every literal the suites in core/configs.go use
		"1", "2", "4", "8", "16", "20", "30", "32", "60", "120", "512", "1024", "8192", "32000", "10000000", "1e-6",
		"0", "100", "1.5", ".5", "5.", "-3", "+3", "-.5", "1e3", "1E3", "1e+3", "2.5e-10", "007",
	} {
		if !isNumber(s) {
			t.Errorf("isNumber(%q) = false, want a literal", s)
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			t.Errorf("%q is in the literal table but does not parse: %v", s, err)
		}
	}
	for _, s := range []string{
		"inf", "Inf", "INF", "+inf", "-Inf", "infinity", "Infinity", "nan", "NaN", "NAN",
		"0x10", "0X1p-2", "0x1.8p1", "1_000", "0b101", "0o17",
		"", "+", "-", ".", "-.", "e3", "1e", "1e+", "1.2.3", "1e3.5", "--1", "1 ", " 1", "n_nodes", "n", "1x",
	} {
		if isNumber(s) {
			t.Errorf("isNumber(%q) = true, want a name", s)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		isNumber("processes_per_node")
		isNumber("10000000")
		isNumber("1e-6")
	}); n != 0 {
		t.Errorf("isNumber allocates %v times per three calls, want 0", n)
	}
}

// TestVariablesNamedLikeFloats: inf, nan and infinity are names.
func TestVariablesNamedLikeFloats(t *testing.T) {
	ex := NewExpander(map[string]string{"inf": "3", "NaN": "4", "Infinity": "5", "nan": "text"})
	for in, want := range map[string]string{
		"{inf}": "3", "{inf*2}": "6", "{NaN+inf}": "7", "{Infinity}": "5", "{2*Infinity}": "10", "{nan}": "text",
	} {
		if got, err := ex.Expand(in); err != nil || got != want {
			t.Errorf("Expand(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{"{Inf}", "{infinity*2}", "{0x10}", "{1_000}"} {
		if got, err := ex.Expand(in); err == nil {
			t.Errorf("Expand(%q) = %q with no such variable, want an error", in, got)
		}
	}
}

// FuzzExpand holds the memoising expander to the memo-less oracle on
// templates and variable tables from the fuzzer ("name=value" lines):
// each variable is expanded first, to fill the memo, then the template.
func FuzzExpand(f *testing.F) {
	f.Add("{mpi_command} {n}", "mpi_command=srun -N {n_nodes} -n {n_ranks}\nn_nodes=2\nn_ranks={ppn*n_nodes}\nppn=8\nn=512")
	f.Add("{a}{b}", "a={b}\nb={a}")
	f.Add("{inf*2}{x//0}", "inf=3\nx=1")
	f.Add("{a", "a=}")
	f.Fuzz(func(t *testing.T, tpl, table string) {
		vars := map[string]string{}
		var names []string
		for _, line := range strings.Split(table, "\n") {
			if k, v, ok := strings.Cut(line, "="); ok {
				if _, dup := vars[k]; !dup {
					names = append(names, k)
				}
				vars[k] = v
			}
		}
		ex, o := NewExpander(maps.Clone(vars)), &oracle{vars: vars}
		for _, k := range names {
			if !agree(t, ex, o, "{"+k+"}", "filling the memo") {
				t.Skip("exponential without a memo")
			}
		}
		if !agree(t, ex, o, tpl, "template") {
			t.Skip("exponential without a memo")
		}
	})
}

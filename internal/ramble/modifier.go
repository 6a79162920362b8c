package ramble

import (
	"fmt"
	"regexp"
	"sort"
)

// Modifier is Ramble's "abstract modifier" construct (Section 3.2):
// a reusable, repeatable change to experiment behavior — extra
// environment variables, extra workload variables, and extra figures
// of merit. Section 4.5 of the paper uses modifiers "to capture
// architecture-specific FOMs (e.g., hardware counters)".
type Modifier struct {
	Name        string
	Description string
	// Variables are applied as defaults (user-set values win).
	Variables map[string]string
	// EnvVars are added to the experiment environment.
	EnvVars map[string]string
	// FOMs are extracted from output in addition to the
	// application's own.
	FOMs []FOM
	// Success criteria added by the modifier.
	Success []SuccessCriterion
}

// Validate checks the modifier's regexes.
func (m *Modifier) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("ramble: modifier with empty name")
	}
	for i := range m.FOMs {
		if err := m.FOMs[i].compile(); err != nil {
			return fmt.Errorf("ramble: modifier %s FOM %s: %w", m.Name, m.FOMs[i].Name, err)
		}
	}
	for _, s := range m.Success {
		if _, err := regexp.Compile(s.Match); err != nil {
			return fmt.Errorf("ramble: modifier %s success %s: %w", m.Name, s.Name, err)
		}
	}
	return nil
}

// ExtractFOMs runs the modifier's FOM regexes over output text.
func (m *Modifier) ExtractFOMs(output string) map[string]string {
	return extractFOMs(m.FOMs, output)
}

var modifierRegistry = map[string]*Modifier{}

// RegisterModifier adds a modifier definition; it panics on invalid
// definitions or duplicates (registration is init-time).
func RegisterModifier(m *Modifier) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if _, dup := modifierRegistry[m.Name]; dup {
		panic("ramble: duplicate modifier " + m.Name)
	}
	modifierRegistry[m.Name] = m
}

// GetModifier returns a registered modifier.
func GetModifier(name string) (*Modifier, error) {
	m, ok := modifierRegistry[name]
	if !ok {
		return nil, fmt.Errorf("ramble: unknown modifier %q (have %v)", name, ModifierNames())
	}
	return m, nil
}

// ModifierNames lists registered modifiers, sorted.
func ModifierNames() []string {
	out := make([]string, 0, len(modifierRegistry))
	for n := range modifierRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	// caliper: always-on profiling (Section 5), configured through the
	// standard CALI_CONFIG environment the real library uses.
	RegisterModifier(&Modifier{
		Name:        "caliper",
		Description: "enable always-on Caliper profiling with a runtime report",
		Variables:   map[string]string{"caliper": "1"},
		EnvVars: map[string]string{
			"CALI_CONFIG": "runtime-report(output={experiment_run_dir}/{experiment_name}.cali)",
		},
	})
	// papi: architecture-specific hardware-counter FOMs (Section 4.5's
	// motivating example for modifiers).
	RegisterModifier(&Modifier{
		Name:        "papi",
		Description: "collect hardware counters and expose them as FOMs",
		Variables:   map[string]string{"papi": "1"},
		EnvVars:     map[string]string{"PAPI_EVENTS": "PAPI_FP_OPS,PAPI_L3_TCM"},
		FOMs: []FOM{
			{Name: "papi_fp_ops", Regex: `papi\.PAPI_FP_OPS: (?P<v>[0-9.e+]+)`, GroupName: "v", Units: "ops"},
			{Name: "papi_l3_tcm", Regex: `papi\.PAPI_L3_TCM: (?P<v>[0-9.e+]+)`, GroupName: "v", Units: "misses"},
		},
	})
}

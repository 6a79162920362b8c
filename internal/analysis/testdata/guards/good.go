package fixture

import (
	"os"
	"strings"

	"repro/internal/bench"
)

// Params shares the confined type's name, not its identity.
type Params struct{ Ranks int }

func local() Params { return Params{Ranks: 1} }

// Naming the type, reading a field or calling a method builds nothing.
func read(p bench.Params) string {
	var zero bench.Params
	_ = zero.Ranks
	return p.Var("n", "1")
}

// A method that shares a confined function's name is another object.
type runner struct{}

func (runner) Run() {}

// make([]float64) is refused in internal/bench only, package os in the
// disk packages only, and a retired name or prefix in the package that
// retired it only.
func elsewhere() []float64 {
	runner{}.Run()
	_ = strings.HasPrefix(os.Getenv("FLAG"), "--no-cache")
	return make([]float64, 4)
}

func Isend() {}

func suppressed() bench.Params {
	//benchlint:ignore guards fixture exercises the suppression directive
	return bench.Params{}
}

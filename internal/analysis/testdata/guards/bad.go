// Package fixture exercises the guards analyzer on the confined rows
// that hold in every package: a kernel's parameters built outside a
// session, and a kernel's ranks started outside runRanks. (Retired
// names and the rows refused in one package are checked on the real
// module by TestSeededMutations.)
package fixture

import (
	"repro/internal/bench"
	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func params(n int) bench.Params {
	return bench.Params{Ranks: n} //want guards
}

func pointer() *bench.Params {
	return &bench.Params{} //want guards
}

// Each element of the slice is a composite literal of the type.
func batch() []bench.Params {
	return []bench.Params{{Ranks: 1}} //want guards
}

func ranks() (float64, error) {
	return mpisim.Run(nil, 2, 1, func(c *mpisim.Comm) error { //want guards
		rec := caliper.NewRecorder(c.Now) //want guards
		rec.Begin("main")
		rec.End("main")
		return nil
	})
}

// A function value is a use too, not only a call.
var start = mpisim.Run //want guards

package fixture

import "context"

func suppressed() {
	//benchlint:ignore ctxflow fixture exercises the suppression directive
	doWork(context.Background())
}

type job struct {
	ctx  context.Context
	name string
}

// suppressedInComposite pins the statement-anchored directive: the
// finding sits on an inner line of the multi-line composite literal,
// but the ignore above the statement's first line still covers it.
func suppressedInComposite() job {
	//benchlint:ignore ctxflow fixture anchors the directive to the statement
	j := job{
		ctx:  context.Background(),
		name: "anchored",
	}
	return j
}

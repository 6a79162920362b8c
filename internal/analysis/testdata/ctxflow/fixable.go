package fixture

import "context"

// reroute already holds its caller's context, so the finding carries
// the fix that passes ctx instead.
func reroute(ctx context.Context) {
	doWork(context.Background()) //want ctxflow
}

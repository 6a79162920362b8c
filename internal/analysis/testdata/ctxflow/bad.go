// Package fixture exercises the ctxflow analyzer: fresh contexts
// outside main, and misplaced context parameters.
package fixture

import "context"

func runPipeline() error {
	ctx := context.Background() //want ctxflow
	_ = ctx
	return nil
}

func syncAll() {
	doWork(context.TODO()) //want ctxflow
}

func doWork(ctx context.Context) { _ = ctx }

func misplaced(name string, ctx context.Context) { _, _ = name, ctx } //want ctxflow

// runPipelineCompat is a context-free wrapper over runPipelineContext:
// a documented wrapper severs the chain like any other caller.
func runPipelineCompat() error {
	return runPipelineContext(context.Background()) //want ctxflow
}

func runPipelineContext(ctx context.Context) error {
	_ = ctx
	return nil
}

// reroute already holds its caller's context, and a fresh one is
// still a finding: the caller's cancellation never reaches doWork.
func reroute(ctx context.Context) {
	doWork(context.Background()) //want ctxflow
}

// Package ctxflow exercises the ctxflow analyzer: manufactured
// contexts in library code, dropped contexts at call sites, and the
// interprocedural severed-chain rule.
package ctxflow

import (
	"context"
	"time"
)

// run is the blocking leaf every chain below targets.
func run(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(time.Millisecond):
	}
}

// BG: a manufactured context in library code.
func makesBackground() {
	ctx := context.Background() // want "severs caller cancellation"
	_ = ctx
}

// A non-Ctx compat wrapper manufactures its context; no annotation
// exempts it.
func shim() {
	run(context.Background()) // want "severs caller cancellation"
}

// DROP: a context-bearing function passing nil where a context belongs.
func dropsCtx(ctx context.Context) {
	run(nil) // want "non-context value in its context position"
}

// Forwarding the caller's context is the contract.
func threads(ctx context.Context) {
	run(ctx)
}

// Deriving from the caller's context preserves the chain.
func derives(ctx context.Context) {
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	run(tctx)
}

// SEVER: helper reaches context-taking machinery with no context to
// give it; calling it from a context-bearing function severs the chain.
func sever(ctx context.Context) {
	helper() // want "reaches context-taking code without one"
}

func helper() {
	run(context.TODO()) // want "severs caller cancellation"
}

// Calling such a wrapper from a context-bearing function severs the
// chain like any other context-free hop.
func throughShim(ctx context.Context) {
	shim() // want "reaches context-taking code without one"
}

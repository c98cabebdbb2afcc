// Package core packs one violation of every per-package lashvet analyzer
// into a boundary+hot package, plus one suppressed finding, for the
// multichecker smoke test; it is also the production caller testonly
// needs to see in internal/store.
package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"badmod/internal/store"
	"badmod/obs"
)

// ctxfirst: parameter out of order.
func Mine(name string, ctx context.Context) error {
	return run(ctx, name)
}

// ctxfirst (suppressed): same shape, with a justified directive.
func MineLegacy(name string, ctx context.Context) error { //lashvet:ignore ctxfirst frozen signature kept for the smoke test
	return run(ctx, name)
}

type stats struct {
	emitted int64
}

var total stats

func run(ctx context.Context, name string) error {
	// atomicfield: plain read of an atomically-written field.
	atomic.AddInt64(&total.emitted, int64(store.Count()))
	if total.emitted > 1_000_000 {
		// errjob: unannotated, unwrapped error at the boundary.
		return fmt.Errorf("too much output from %s: %v", name, ctx.Err())
	}
	return nil
}

// obshandle: registry lookup in a hot package.
func record(r *obs.Registry) {
	r.Counter("items", "items").Inc()
}

// emitgo: callback crosses a goroutine.
func mapOver(items []int, emit func(int)) {
	for _, it := range items {
		go emit(it)
	}
}

var _ = record
var _ = mapOver

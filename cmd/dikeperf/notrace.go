//go:build !trace

package main

import (
	"context"
	"errors"
)

// traceWorkload needs the traced copy of the harness wiring, which is
// compiled only with -tags trace: it calls package constructors that
// internal refactors may change, and keeping it out of the default build
// keeps the end-to-end benchmark building across such changes.
func traceWorkload(context.Context, workload, *env, config) (gated, report []metric, err error) {
	return nil, nil, errors.New("--trace 1 needs a binary built with -tags trace (run.sh does this)")
}

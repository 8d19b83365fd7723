//go:build !layers

package main

import (
	"errors"
	"io"
)

// The traced run binds to internal packages through benchmark/layers.
// It is compiled only with -tags layers, so a refactor that renames an
// internal function cannot stop the end-to-end runs from building.
func runTraced(runConfig, string, io.Writer) (result, error) {
	return result{}, errors.New("built without -tags layers: no traced run (use benchmark/run.sh, which builds both)")
}

func simdLevel() string { return "see cpu_flags (kernel tier is reported by the traced build)" }

//go:build layers

package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The traced smoke pass binds every layer stage on every workload.
func TestTracedSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := runConfig{workload: name, seed: 3, smoke: true, scratch: dir}
			res, err := runTraced(cfg, dir, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Errorf("correct=%v, %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayer))
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

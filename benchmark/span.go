package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Parent is the ID of the
// span that caused it (0 for a root); every span of one run shares Run.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records
// nothing, so untraced runs pay one nil check per public call.
type tracer struct {
	mu    sync.Mutex
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, StartNs: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// do runs fn inside a span under parent.
func (t *tracer) do(parent int, name string, fn func()) {
	id := t.begin(parent, name)
	fn()
	t.end(id)
}

// selfTimes maps each span ID to its duration minus the part of that
// interval its direct children cover. Overlapping children (concurrent
// calls under one parent) are merged first, so shared time is
// subtracted once.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNs, s.EndNs})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		// insertion sort by start: children per span are few
		for i := 1; i < len(ivs); i++ {
			for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
				ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
			}
		}
		covered, end := int64(0), s.StartNs
		for _, c := range ivs {
			lo, hi := max(c.lo, end), min(c.hi, s.EndNs)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

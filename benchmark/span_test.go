package main

import "testing"

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, StartNs: 80, EndNs: 120}, // runs past its parent
		{ID: 5, Parent: 2, StartNs: 15, EndNs: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 20), // children cover [10,60) and [80,100)
		2: 30 - 5,
		3: 30,
		4: 40,
		5: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNestsAndNilIsNoOp(t *testing.T) {
	var none *tracer
	ran := false
	none.do(0, "x", func() { ran = true })
	if !ran || none.begin(0, "y") != 0 {
		t.Fatal("nil tracer must run the call and record nothing")
	}
	none.end(0)

	tr := newTracer("run-1")
	root := tr.begin(0, "root")
	tr.do(root, "child", func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Run != "run-1" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	if self := selfTimes(tr.spans); self[root] > tr.spans[0].EndNs-tr.spans[0].StartNs {
		t.Error("self time exceeds duration")
	}
}

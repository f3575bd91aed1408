package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailIndexRankRule(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1000, 989},  // p99 with exactly ten beyond
		{2000, 1979}, // p99, twenty beyond
		{4248, 4205}, // p99 of nine batch-cold passes
		{999, 988},   // too few for p99: the rank with ten beyond
		{500, 489},
		{21, 10}, // the rank with ten beyond is the median
		{15, 7},  // below it: the median, never a rank under it
		{1, 0},
	} {
		got := tailIndex(tc.n)
		if got != tc.want {
			t.Errorf("tailIndex(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if beyond := tc.n - 1 - got; tc.n >= 21 && beyond < 10 {
			t.Errorf("tailIndex(%d) leaves %d samples beyond, want at least 10", tc.n, beyond)
		}
	}
}

func TestPercentilesSortAndPick(t *testing.T) {
	lat := make([]time.Duration, 0, 1000)
	for i := 1000; i >= 1; i-- {
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	p50, tail, at := percentiles(lat)
	if p50 != 500*time.Millisecond || tail != 990*time.Millisecond || at != 989 {
		t.Fatalf("percentiles = %v, %v at %d; want 500ms, 990ms at 989", p50, tail, at)
	}
}

func TestCheckGapsFlagsSizeClassBoundary(t *testing.T) {
	// 60 small ops at ~1ms and 40 large ones at ~50ms: the median sits in
	// the small class, well away from the boundary, but the tail of a
	// 100-sample run (rank 89, ten beyond) lies inside the large class.
	var s []time.Duration
	for i := 0; i < 60; i++ {
		s = append(s, time.Millisecond+time.Duration(i)*time.Microsecond)
	}
	for i := 0; i < 40; i++ {
		s = append(s, 50*time.Millisecond+time.Duration(i)*time.Microsecond)
	}
	if w := checkGaps("w", s); len(w) != 0 {
		t.Fatalf("no percentile is on the gap, got %v", w)
	}
	// Moving the boundary onto the median flags it.
	s = s[:0]
	for i := 0; i < 50; i++ {
		s = append(s, time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		s = append(s, 50*time.Millisecond)
	}
	w := checkGaps("w", s)
	if len(w) != 1 || !strings.Contains(w[0], "p50") {
		t.Fatalf("want one p50 gap warning, got %v", w)
	}
}

func TestLayerTimesSubtractsChildren(t *testing.T) {
	// op [0,100) holds sched [10,40) and regalloc [40,90); regalloc holds
	// cfg [50,60) and a second cfg [70,75).
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "sched", Parent: 0, Start: 10, End: 40},
		{Name: "regalloc", Parent: 0, Start: 40, End: 90},
		{Name: "cfg", Parent: 2, Start: 50, End: 60},
		{Name: "cfg", Parent: 2, Start: 70, End: 75},
	}
	self, count := layerTimes(spans)
	want := map[string]time.Duration{"op": 20, "sched": 30, "regalloc": 35, "cfg": 15}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %d, want %d", name, self[name], d)
		}
	}
	if count["cfg"] != 2 || count["op"] != 1 {
		t.Errorf("counts = %v", count)
	}
}

func TestRecorderNestsAndMerges(t *testing.T) {
	a := newRecorder(time.Now())
	a.nextOp(1)
	root := a.begin("op")
	a.do("sched", func() {})
	a.end(root)
	b := newRecorder(time.Now())
	b.nextOp(2)
	b.do("op", func() { b.do("regalloc", func() {}) })
	all := newRecorder(time.Time{})
	all.merge(a, b)
	if len(all.spans) != 4 {
		t.Fatalf("merged %d spans, want 4", len(all.spans))
	}
	if all.spans[1].Parent != 0 || all.spans[3].Parent != 2 || all.spans[2].Parent != -1 {
		t.Fatalf("parents not rebased: %+v", all.spans)
	}
	if all.spans[3].Op != 2 || all.spans[1].Op != 1 {
		t.Fatalf("op ids lost: %+v", all.spans)
	}
	if _, c := layerTimes(all.spans); c["op"] != 2 {
		t.Fatalf("want 2 op spans, got %v", c)
	}
}

func TestBodyKeyIgnoresWallTime(t *testing.T) {
	a := []byte(`{"func":"f","mir":"x","wall_ns":12345}` + "\n")
	b := []byte(`{"func":"f","mir":"x","wall_ns":9}` + "\n")
	c := []byte(`{"func":"f","mir":"y","wall_ns":9}` + "\n")
	if bodyKey(a) != bodyKey(b) {
		t.Error("bodies that differ only in wall_ns must match")
	}
	if bodyKey(b) == bodyKey(c) {
		t.Error("bodies with different MIR must differ")
	}
}

func TestCheckRecordWritesThenCompares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records", "r.json")
	out := &outcome{quality: quality{Static: 3, Dyn: 4}, digest: "ab"}
	if err := checkRecord(path, out); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := checkRecord(path, out); err != nil {
		t.Fatalf("same output: %v", err)
	}
	changed := &outcome{quality: quality{Static: 3, Dyn: 5}, digest: "ab"}
	if err := checkRecord(path, changed); err == nil {
		t.Fatal("a changed count must fail the determinism check")
	}
	changed = &outcome{quality: out.quality, digest: "cd"}
	if err := checkRecord(path, changed); err == nil {
		t.Fatal("a changed output digest must fail the determinism check")
	}
}

package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run. Spans nest: Parent indexes
// the enclosing span of the same recorder (-1 for a root), and every span
// of one op carries that op's ID.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of one goroutine in memory; they are written
// out once, when the run ends, so tracing does no I/O while it measures.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	op    int64
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, spans: make([]span, 0, 1<<16)}
}

// nextOp starts a new op: spans begun from now on share its identifier.
func (r *recorder) nextOp(id int64) { r.op = id }

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: r.op, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// merge appends the spans of others to r, rebasing their parent indexes.
func (r *recorder) merge(others ...*recorder) {
	for _, o := range others {
		base := len(r.spans)
		for _, s := range o.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			r.spans = append(r.spans, s)
		}
	}
}

// layerTimes sums, per span name, the self time — each span's duration
// minus the part of it its direct child spans cover — and the span count.
func layerTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	self = map[string]time.Duration{}
	count = map[string]int{}
	for _, s := range spans {
		self[s.Name] += s.dur()
		count[s.Name]++
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.dur()
		}
	}
	return self, count
}

// writeSpans writes spans as gzipped JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

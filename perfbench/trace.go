package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one timed call from the benchmark into a layer. Spans of one op
// share op; parent is the index of the enclosing span (-1 for a root).
type span struct {
	op     int64
	parent int32
	name   string
	start  int64 // nanotime
	end    int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin returns -1 without reading the clock and end ignores
// it, so workload code calls through unconditionally. The mutex is for the
// trials workload, whose spans come from fleet worker goroutines.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index.
func (t *tracer) begin(op int64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	now := nanotime()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: now, end: -1})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := nanotime()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds an already-timed span (a replay loop times itself). A replay
// with nothing to replay reports start == end == 0 and leaves no span.
func (t *tracer) record(op int64, parent int32, name string, start, end int64) {
	if t == nil || end == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{op: op, parent: parent, name: name, start: start, end: end})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func (t *tracer) selfTimes() []int64 {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start - covered(s, children[i], t.spans)
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []int32, spans []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64 = 0, -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	name          string
	count         int
	total, selfNs int64
}

// summary folds spans by name, ordered by self time, largest first.
func (t *tracer) summary() []spanSummary {
	self := t.selfTimes()
	idx := map[string]int{}
	var out []spanSummary
	for i, s := range t.spans {
		j, ok := idx[s.name]
		if !ok {
			j = len(out)
			idx[s.name] = j
			out = append(out, spanSummary{name: s.name})
		}
		out[j].count++
		out[j].total += s.end - s.start
		out[j].selfNs += self[i]
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].selfNs != out[b].selfNs {
			return out[a].selfNs > out[b].selfNs
		}
		return out[a].name < out[b].name
	})
	return out
}

// spanRecord is the on-disk form of one span, one JSON object per line.
type spanRecord struct {
	Op     int64  `json:"op"`
	Span   int    `json:"span"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// writeTo writes the header line and every span as JSON lines.
func (t *tracer) writeTo(w io.Writer, header any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	self := t.selfTimes()
	for i, s := range t.spans {
		if err := enc.Encode(spanRecord{s.op, i, s.parent, s.name, s.start, s.end, self[i]}); err != nil {
			return err
		}
	}
	return nil
}

// writeFile writes the trace to path, creating its directory.
func (t *tracer) writeFile(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := t.writeTo(bw, header); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

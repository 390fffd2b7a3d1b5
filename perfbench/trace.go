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
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run: an op, an HTTP call
// inside it, a server stage taken from the reply, or a direct call into
// a layer. Spans of one op share its request id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced paths pay one nil check per span.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name a parent recorded later.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as a span and returns its duration.
func (t *tracer) timed(parent int64, name string, fn func()) time.Duration {
	id := t.id()
	start := time.Now()
	fn()
	end := time.Now()
	t.record(id, parent, 0, name, start, end)
	return end.Sub(start)
}

// selfTimes sums each span name's self time — its duration minus the
// part covered by its children, which never overlap by construction —
// grouped by the name of the span's root ("op.delta", "probe", ...).
func (t *tracer) selfTimes() map[string]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]*span, len(t.spans))
	child := make(map[int64]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]map[string]time.Duration)
	for _, s := range t.spans {
		root := &s
		for root.Parent != 0 && byID[root.Parent] != nil {
			root = byID[root.Parent]
		}
		if out[root.Name] == nil {
			out[root.Name] = make(map[string]time.Duration)
		}
		out[root.Name][s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// writeSelfTimes prints one root's self-time table, largest first, as
// shares of the root's total.
func writeSelfTimes(w io.Writer, root string, self map[string]time.Duration) {
	var names []string
	var total time.Duration
	for name, d := range self {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "perfbench: self time under %s spans (total %.1f ms)\n", root, ms(total))
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %10.1f ms  %5.1f%%\n", name, ms(self[name]), 100*float64(self[name])/float64(total))
	}
}

// writeNDJSON writes every span, one JSON object per line.
func (t *tracer) writeNDJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

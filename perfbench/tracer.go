package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer of the system, recorded by the
// benchmark around the public call. Spans of one operation (a GD
// iteration, a round, a job cycle) share Op; Parent is the index of the
// enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's name belongs to: the text before the first
// dot ("rpc.round" → "rpc").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end; -1 when t is nil.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns each layer's total self time: every span's duration
// minus the part of its interval that its children cover, summed by
// layer. Overlapping children (concurrent calls under one parent) are
// counted once. Spans outside any operation (set-up) are left out.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.Op >= 0 {
			out[s.layer()] += s.dur() - covered(s, children[i])
		}
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

// The traced run's span store. Spans are recorded only from this
// package, around calls into each layer's public functions, kept in
// memory and written out once as a Chrome trace_event file when the run
// ends. Every span carries its layer as the trace category, which is
// what per-layer self time is aggregated by.

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Parent is the id of the span that caused it
// (0 for the root); Lane is the trace thread it is drawn on.
type span struct {
	ID     int
	Parent int
	Layer  string
	Name   string
	Lane   int
	Start  time.Duration
	End    time.Duration
}

// spans records spans relative to a fixed origin. It is safe for use by
// the pipeline's worker goroutines.
type spans struct {
	origin time.Time
	mu     sync.Mutex
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// since converts a wall-clock instant to the store's timeline.
func (s *spans) since(t time.Time) time.Duration { return t.Sub(s.origin) }

// add records a finished span and returns its id.
func (s *spans) add(parent int, layer, name string, lane int, start, end time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Layer: layer, Name: name, Lane: lane, Start: s.since(start), End: s.since(end)})
	return id
}

// open is a span whose end is not known yet. Children may name it as
// their parent before it ends.
type open struct {
	s     *spans
	id    int
	start time.Time
}

// begin opens a span on lane 0 and reserves its id.
func (s *spans) begin(parent int, layer, name string) *open {
	start := time.Now()
	id := s.add(parent, layer, name, 0, start, start)
	return &open{s: s, id: id, start: start}
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	now := time.Now()
	o.s.mu.Lock()
	o.s.list[o.id-1].End = o.s.since(now)
	o.s.mu.Unlock()
	return now.Sub(o.start)
}

// timed runs fn inside a span and returns fn's error and the span's
// duration.
func (s *spans) timed(parent int, layer, name string, fn func() error) (time.Duration, error) {
	o := s.begin(parent, layer, name)
	err := fn()
	return o.end(), err
}

// snapshot returns a copy of every recorded span.
func (s *spans) snapshot() []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of its interval that its children
// cover. Children may run on other lanes (shards under a collect span),
// so coverage is the union of the children's intervals, clipped to the
// parent. Sums run over lanes, so layers running in parallel can add up
// to more than the wall time.
func selfTimes(list []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, sp := range list {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	out := map[string]time.Duration{}
	for _, sp := range list {
		out[sp.Layer] += sp.End - sp.Start - covered(sp, children[sp.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	started := false
	for _, v := range iv {
		switch {
		case !started:
			curLo, curHi, started = v[0], v[1], true
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// traceEvent is one Chrome trace_event "X" (complete) event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeTrace writes the spans as a Chrome trace_event file (µs units).
func writeTrace(w io.Writer, list []span) error {
	evs := make([]traceEvent, len(list))
	for i, sp := range list {
		evs[i] = traceEvent{
			Name: sp.Name, Cat: sp.Layer, Ph: "X",
			TS:  sp.Start.Microseconds(),
			Dur: (sp.End - sp.Start).Microseconds(),
			PID: 1, TID: sp.Lane,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{evs})
}

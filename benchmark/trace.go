package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// opSpan is the name of every op's root span; its self time is the op's
// unaccounted remainder.
const opSpan = "op"

// setupOp is the op ID of spans recorded while setting up; they are not
// divided among the measured ops.
const setupOp = "setup"

// span is one traced interval. Spans of one op share Op; Parent is the
// enclosing span's ID (0 for a root). A derived span was timed by the
// library's own recorder: its duration is exact, and it is placed at the
// start of its parent because only the total is known.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      string  `json:"op"`
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	EndMs   float64 `json:"endMs"`
	Derived bool    `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced window pays one branch per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opID returns a fresh op ID ("" on a nil tracer).
func (t *tracer) opID(kind string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return fmt.Sprintf("%s-%d", kind, t.ops)
}

func (t *tracer) at(ts time.Time) float64 { return ms(ts.Sub(t.t0)) }

// begin opens a span now and returns its ID (0 on a nil tracer).
func (t *tracer) begin(op, name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(op, name, parent, time.Now(), time.Time{}, false)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].EndMs = now
	t.mu.Unlock()
}

// add records a span from start to end (a zero end leaves it open) and
// returns its ID (0 on a nil tracer).
func (t *tracer) add(op, name string, parent int, start, end time.Time, derived bool) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Op: op, Name: name, StartMs: t.at(start), Derived: derived}
	if !end.IsZero() {
		s.EndMs = t.at(end)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// derive records a child of parent that the library timed itself: dur
// long, placed at the parent's start.
func (t *tracer) derive(op, name string, parent int, dur time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	start := t.spans[parent-1].StartMs
	t.mu.Unlock()
	t.add(op, name, parent, t.t0.Add(time.Duration(start*float64(time.Millisecond))),
		t.t0.Add(time.Duration(start*float64(time.Millisecond))+dur), true)
}

// selfPerOp returns, per span name, the self time of the measured ops'
// spans divided by ops, as "<name>_ms"; set-up spans are divided by
// setupReps instead. A span's self time is its duration minus the part its
// children cover. The op root spans report as trace.remainder_ms (their
// self time) and trace.op_ms (their duration), so the layer self times
// plus the remainder add up to trace.op_ms.
func (t *tracer) selfPerOp(ops int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := s.EndMs - s.StartMs - covered(s, children[s.ID])
		name := s.Name + "_ms"
		switch {
		case s.Op == setupOp:
			out[name] += self / setupReps
		case ops == 0:
			// no measured op to divide the span among
		case s.Name == opSpan:
			out["trace.remainder_ms"] += self / float64(ops)
			out["trace.op_ms"] += (s.EndMs - s.StartMs) / float64(ops)
		default:
			out[name] += self / float64(ops)
		}
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartMs < kids[j].StartMs })
	total, curStart, curEnd := 0.0, 0.0, -1.0
	for _, k := range kids {
		lo, hi := max(k.StartMs, parent.StartMs), min(k.EndMs, parent.EndMs)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

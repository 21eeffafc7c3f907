package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Start and End are nanoseconds since the tracer's
// epoch; Parent is the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the same code runs traced and untraced.
type Tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *Tracer { return &Tracer{on: on, epoch: time.Now()} }

// spanHandle closes an open span.
type spanHandle struct {
	t     *Tracer
	id    int64
	start int64
}

// Start opens a span named name under parent and returns its handle.
func (t *Tracer) Start(name string, parent int64) spanHandle {
	if t == nil || !t.on {
		return spanHandle{}
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start, End: -1})
	t.mu.Unlock()
	return spanHandle{t: t, id: id, start: start}
}

// ID is the span's identifier, for use as a child's parent.
func (h spanHandle) ID() int64 { return h.id }

// End closes the span.
func (h spanHandle) End() {
	if h.t == nil {
		return
	}
	end := time.Since(h.t.epoch).Nanoseconds()
	h.t.mu.Lock()
	h.t.spans[h.id-1].End = end
	h.t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile stores the spans as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Children that overlap
// each other (concurrent calls) are counted once.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [lo, hi].
func covered(lo, hi int64, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfMillis lists the self times, in milliseconds, of every span named
// name, in recording order.
func selfMillis(spans []Span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/1e6)
		}
	}
	return out
}

// spanCostNs measures what one Start/End pair costs on an enabled tracer.
func spanCostNs() float64 {
	const n = 100000
	t := newTracer(true)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.Start("x", 0).End()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// tracedPair is one untraced and one traced pass over the same work, in
// seconds.
type tracedPair struct{ untraced, traced float64 }

// pairOrder alternates which pass of a pair runs first, so that warm-up
// and drift do not always favour the same side.
func pairOrder(i int) []bool {
	if i%2 == 0 {
		return []bool{false, true}
	}
	return []bool{true, false}
}

// overheadPcts is each pair's traced time over its untraced time, as a
// percentage above it.
func overheadPcts(pairs []tracedPair) []float64 {
	out := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, (p.traced/p.untraced-1)*100)
	}
	return out
}

// setOverhead reports trace.overhead_pct, the median over the pairs of
// the measured traced-over-untraced excess, with its quartiles and pair
// count for reference. The tracer's own cost (spans per pass times the
// cost of one span, timed in a hot loop) is printed beside it as an
// estimate: it leaves out what a loop cannot show, such as growth of the
// span slice and lock contention among concurrent callers.
func setOverhead(o *outcome, pairs []tracedPair, spansPerPass int) {
	pcts := overheadPcts(pairs)
	o.set("trace.overhead_pct", "%", median(pcts))
	o.info["overhead_pct_per_pair"] = pcts
	if q1, _, q3, err := quartiles(pcts); err == nil {
		o.info["overhead_pct_q1_q3"] = []float64{q1, q3}
	}
	var untraced []float64
	for _, p := range pairs {
		untraced = append(untraced, p.untraced)
	}
	cost := spanCostNs()
	o.info["span_cost_ns"] = cost
	o.info["spans_per_pass"] = spansPerPass
	o.info["overhead_pct_estimate"] = float64(spansPerPass) * cost / (median(untraced) * 1e9) * 100
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

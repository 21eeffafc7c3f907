package main

import (
	"math"
	"testing"

	"dragprof/internal/profile"
	"dragprof/internal/vm"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; !near(got[0], c.want[0]) || !near(got[1], c.want[1]) || !near(got[2], c.want[2]) {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
		ok    bool
	}{{39, "", false}, {40, "", false}, {99, "", false}, {100, "p90", true}, {999, "p90", true}, {1000, "p99", true}, {10000, "p999", true}} {
		_, label, ok := tailPercentile(c.n)
		if label != c.label || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %q %v, want %q %v", c.n, label, ok, c.label, c.ok)
		}
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 4, 16})
	if err != nil || !near(g, 4) {
		t.Errorf("geomean(1,4,16) = %v, %v; want 4", g, err)
	}
	if _, err := geomean([]float64{1, 0}); err == nil {
		t.Error("geomean with a zero should fail")
	}
	if _, err := geomean(nil); err == nil {
		t.Error("geomean of nothing should fail")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := selfMillis(spans, "a"); len(got) != 1 || !near(got[0], 25e-6) {
		t.Errorf("selfMillis(a) = %v", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	h := tr.Start("x", 0)
	h.End()
	if len(tr.Spans()) != 0 {
		t.Error("a disabled tracer recorded spans")
	}
	on := newTracer(true)
	outer := on.Start("outer", 0)
	inner := on.Start("inner", outer.ID())
	inner.End()
	outer.End()
	s := on.Spans()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
}

func TestOverheadPcts(t *testing.T) {
	// 1.1 s traced against 1 s untraced is 10% over; 0.95 against 1 is 5% under.
	got := overheadPcts([]tracedPair{{untraced: 1, traced: 1.1}, {untraced: 2, traced: 1.9}})
	if len(got) != 2 || !near(got[0], 10) || !near(got[1], -5) {
		t.Errorf("overheadPcts = %v, want [10 -5]", got)
	}
	if o := pairOrder(0); o[0] || !o[1] {
		t.Errorf("pairOrder(0) = %v, want untraced first", o)
	}
	if o := pairOrder(1); !o[0] || o[1] {
		t.Errorf("pairOrder(1) = %v, want traced first", o)
	}
}

func TestFoldProfile(t *testing.T) {
	p := &profile.Profile{
		MethodNames: []string{"Main.main", "A.make"},
		ChainNodes:  []vm.ChainNode{{Parent: -1, Method: 0, Line: 3}, {Parent: 0, Method: 1, Line: 7}},
		Records: []*profile.Record{
			// used: drag = 10 × (100 − 40), in use = 10 × (40 − 0)
			{Size: 10, Chain: 1, Create: 0, LastUse: 40, Collect: 100},
			// never used: all of its life is drag
			{Size: 4, Chain: 0, Create: 20, Collect: 50},
			// interned: counted as an allocation, not reported
			{Size: 8, Chain: 0, Create: 0, Collect: 100, Interned: true},
		},
	}
	f := foldProfile(p)
	if f.records != 3 || f.sizeSum != 22 {
		t.Errorf("records/sizes = %d/%d, want 3/22", f.records, f.sizeSum)
	}
	if f.drag != 600+120 || f.reach != 1000+120 || f.inUse != 400 || f.drag != f.reach-f.inUse {
		t.Errorf("drag/reach/inUse = %d/%d/%d", f.drag, f.reach, f.inUse)
	}
	if len(f.sites) != 2 {
		t.Fatalf("sites = %v", f.sites)
	}
	for desc, s := range f.sites {
		if s.count != 1 || (s.drag != 600 && s.drag != 120) {
			t.Errorf("site %q = %+v", desc, s)
		}
	}
}

func TestParseCanonical(t *testing.T) {
	dump := []byte(`report "x" finalclock=100
options nest=4 window=10 mostly=0x1p-01 large=2 toplastuse=3
totals objects=2 bytes=14 reach=1120 inuse=400 drag=720 neverused=1 nudrag=120
site groups=1
  site key="site:0" siteid=0 desc="A.make:7 (new X)"
    count=2 neverused=1 bytes=14 drag=720 nudrag=120 inuse=400
nested groups=2
  nested key="chain:1" siteid=-1 desc="Main.main:3 > A.make:7"
    count=1 neverused=0 bytes=10 drag=600 nudrag=0 inuse=400
    meandrag=0x1p+00 stddrag=0x0p+00 pattern=3
  nested key="chain:0" siteid=-1 desc="Main.main:3"
    count=1 neverused=1 bytes=4 drag=120 nudrag=120 inuse=0
`)
	rep, err := parseCanonical(dump)
	if err != nil {
		t.Fatal(err)
	}
	if rep.drag != 720 || rep.reach != 1120 || rep.inUse != 400 {
		t.Errorf("totals = %+v", rep)
	}
	want := map[string]siteSum{"Main.main:3 > A.make:7": {1, 10, 600}, "Main.main:3": {1, 4, 120}}
	if !sameSites(want, rep.nested) {
		t.Errorf("nested = %v, want %v", rep.nested, want)
	}
	if _, err := parseCanonical([]byte("nested groups=0\n")); err == nil {
		t.Error("a dump without totals should fail")
	}
}

func TestAnySubsetMatches(t *testing.T) {
	base := map[string]siteSum{"s": {1, 1, 1}}
	a := &logEntry{fold: ownFold{sites: map[string]siteSum{"s": {1, 2, 3}}}}
	b := &logEntry{fold: ownFold{sites: map[string]siteSum{"t": {5, 5, 5}}}}
	if !anySubsetMatches(base, []*logEntry{a, b}, 1, map[string]siteSum{"s": {1, 1, 1}, "t": {5, 5, 5}}) {
		t.Error("base+b should match")
	}
	if anySubsetMatches(base, []*logEntry{a, b}, 1, map[string]siteSum{"s": {2, 3, 4}, "t": {5, 5, 5}}) {
		t.Error("base+a+b needs two extras, not one")
	}
	if !anySubsetMatches(base, []*logEntry{a, b}, 2, map[string]siteSum{"s": {2, 3, 4}, "t": {5, 5, 5}}) {
		t.Error("base+a+b should match with two extras")
	}
}

func TestParseMetrics(t *testing.T) {
	g, err := parseMetrics([]byte("dragserved_ready 1\ndragserved_tenant_store_runs{tenant=\"alpha\"} 42\n"))
	if err != nil || g[runGauge("alpha")] != 42 || g["dragserved_ready"] != 1 {
		t.Errorf("parseMetrics = %v, %v", g, err)
	}
	if _, err := parseMetrics([]byte("x y\n")); err == nil {
		t.Error("a non-integer value should fail")
	}
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dragprof/internal/drag"
	"dragprof/internal/profile"
	"dragprof/internal/report"
	"dragprof/internal/store"
)

// Replay sizes: calls per store operation in one pass.
const (
	replayReads   = 24
	replayPairs   = 12
	replayIngests = 8
	// overheadPairs untraced and as many traced passes alternate, each on a
	// fresh copy of the store.
	overheadPairs = 6
)

// serveLayers is the traced run of serve-mixed. The closed loop has just
// run with a span around every HTTP call; now the store's methods are
// called directly on copies of tenant A's store, repeating the workload's
// operations, in alternating untraced and traced passes. Each server self
// time is an endpoint's median latency minus the median of the store and
// drag calls it wraps. A last traced pass runs the corpus programs through
// the program layers.
func serveLayers(e *serveEnv, o *outcome, compactions, compactErrors int64) (*outcome, error) {
	src := filepath.Join(e.srv.dir, "data", "tenants", tenantA)
	var pairs []tracedPair
	var runs []map[string]float64
	var traced *Tracer
	for i := 0; i < overheadPairs; i++ {
		var pair tracedPair
		for _, on := range pairOrder(i) {
			dst := filepath.Join(e.cfg.work, fmt.Sprintf("replay%d-%t", i, on))
			if err := copyDir(src, dst); err != nil {
				return nil, err
			}
			tr := newTracer(on)
			t0 := time.Now()
			facts, err := storeReplay(e, tr, dst)
			wall := time.Since(t0).Seconds()
			if err != nil {
				return nil, err
			}
			if on {
				traced = tr
				pair.traced = wall
				runs = append(runs, serveLayerMetrics(tr.Spans(), facts))
			} else {
				pair.untraced = wall
			}
			if err := os.RemoveAll(dst); err != nil {
				return nil, err
			}
		}
		pairs = append(pairs, pair)
	}
	m := medians(runs)
	p50 := func(op opKind) float64 { return median(e.lat[op]) }
	// The server layer exists in this workload alone, so its self times
	// and compaction counts are reference figures, not result metrics.
	o.info["server"] = map[string]float64{
		"push_self_ms":    p50(opPush) - m["store.ingest_ms"],
		"sites_self_ms":   p50(opSites) - m["store.sites_ms"],
		"report_self_ms":  p50(opReport) - m["store.get_us"]/1000 - m["store.report_ms"],
		"diff_self_ms":    p50(opDiff) - 2*(m["store.get_us"]/1000+m["store.report_ms"]) - m["drag.compare_ms"],
		"run_self_ms":     p50(opLookup) - m["store.get_us"]/1000,
		"metrics_self_ms": p50(opMetrics) - m["store.stats_us"]/1000,
		"compactions":     float64(compactions),
		"compact_errors":  float64(compactErrors),
	}
	o.info["store_sites_ms"] = m["store.sites_ms"]
	delete(m, "store.sites_ms")

	// The program layers run here only in set-up, building the corpus: one
	// traced pass over the corpus programs measures them. The decode,
	// aggregation and render figures stay the replay's, which read the
	// served logs.
	var progs []string
	for _, n := range e.names {
		progs = append(progs, n.name)
	}
	po := newOutcome()
	progTr := newTracer(true)
	pf, err := layerPass(po, progTr, progs)
	if err != nil {
		return nil, err
	}
	o.problems = append(o.problems, po.problems...)
	for name, v := range profileLayerMetrics(progTr.Spans(), pf) {
		if _, ok := m[name]; !ok {
			m[name] = v
		}
	}
	for name, v := range m {
		o.set(name, layerUnits[name], v)
	}
	setOverhead(o, pairs, len(traced.Spans()))
	if err := writeSpans(e.cfg, e.tr, "-http"); err != nil {
		return nil, err
	}
	if err := writeSpans(e.cfg, progTr, "-programs"); err != nil {
		return nil, err
	}
	return o, writeSpans(e.cfg, traced, "-store")
}

// replayFacts are the counts a store replay observes.
type replayFacts struct {
	records    int
	runsMerged int
}

// storeReplay opens the copied store and repeats the workload's
// operations on it through the store API, one span per call.
func storeReplay(e *serveEnv, tr *Tracer, dir string) (replayFacts, error) {
	var f replayFacts
	workers := runtime.GOMAXPROCS(0)
	rng := rand.New(rand.NewSource(int64(mix(uint64(e.cfg.seed), 11))))
	h := tr.Start("store.open", 0)
	st, err := store.OpenSharded(dir, serveShards)
	h.End()
	if err != nil {
		return f, err
	}
	reportOf := func(le *logEntry) (*drag.Report, error) {
		h := tr.Start("store.get", 0)
		_, ok := st.Get(le.id)
		h.End()
		if !ok {
			return nil, fmt.Errorf("replay: run %s missing from the store copy", le.id)
		}
		h = tr.Start("store.report", 0)
		rep, err := st.Report(le.id, drag.Options{}, workers)
		h.End()
		return rep, err
	}
	for i := 0; i < replayReads; i++ {
		le, _ := e.pick(rng, false)
		rep, err := reportOf(le)
		if err != nil {
			return f, err
		}
		h := tr.Start("report.render", 0)
		_, err = report.DiagnosticsJSON(report.DragDiagnostics(rep, nil, 1000000))
		h.End()
		if err != nil {
			return f, err
		}
		h = tr.Start("store.stats", 0)
		_, _, _ = st.NumRuns(), st.TotalBytes(), st.SalvagedRuns()
		h.End()
		h = tr.Start("store.sites", 0)
		_, err = st.SiteSummaries(workers)
		h.End()
		if err != nil {
			return f, err
		}
		h = tr.Start("profile.decode", 0)
		p, err := profile.ReadLog(bytes.NewReader(le.body))
		h.End()
		if err != nil {
			return f, err
		}
		h = tr.Start("drag.aggregate", 0)
		drag.Analyze(p, drag.Options{})
		h.End()
		f.records += len(p.Records)
	}
	for i := 0; i < replayPairs; i++ {
		a, b := e.pick(rng, true)
		ra, err := reportOf(a)
		if err != nil {
			return f, err
		}
		rb, err := reportOf(b)
		if err != nil {
			return f, err
		}
		h := tr.Start("drag.compare", 0)
		_, err = drag.CompareChecked(ra, rb)
		h.End()
		if err != nil {
			return f, err
		}
	}
	touched := map[string]int{}
	for i := 0; i < replayIngests; i++ {
		n := e.names[i%len(e.names)]
		le, err := e.corpus.make(n, 3, uint64(i))
		if err != nil {
			return f, err
		}
		h := tr.Start("store.ingest", 0)
		res, err := st.Ingest(bytes.NewReader(le.body), workers)
		h.End()
		if err != nil {
			return f, err
		}
		if res.Meta == nil || res.Meta.ID != le.id {
			return f, fmt.Errorf("replay: ingest stored %s under another id", le.id)
		}
		touched[n.name]++
	}
	for name, k := range touched {
		f.runsMerged += len(e.acked[name]) + k
	}
	h = tr.Start("store.compact", 0)
	err = st.Compact(workers)
	h.End()
	return f, err
}

// serveLayerMetrics turns the traced replay into per-layer figures.
func serveLayerMetrics(spans []Span, f replayFacts) map[string]float64 {
	m := storeLayerMetrics(spans, f.runsMerged)
	m["profile.decode_krec_s"] = float64(f.records) / sum(selfMillis(spans, "profile.decode"))
	m["drag.aggregate_ns_per_rec"] = sum(selfMillis(spans, "drag.aggregate")) * 1e6 / float64(f.records)
	m["report.render_ms"] = median(selfMillis(spans, "report.render"))
	m["store.sites_ms"] = median(selfMillis(spans, "store.sites"))
	return m
}

// storeLayerMetrics are the store-layer figures (and the diff's compare)
// of a traced pass through store.Sharded that merged runsMerged runs.
func storeLayerMetrics(spans []Span, runsMerged int) map[string]float64 {
	return map[string]float64{
		"drag.compare_ms":          median(selfMillis(spans, "drag.compare")),
		"store.ingest_ms":          median(selfMillis(spans, "store.ingest")),
		"store.compact_ms_per_run": sum(selfMillis(spans, "store.compact")) / float64(runsMerged),
		"store.report_ms":          median(selfMillis(spans, "store.report")),
		"store.get_us":             median(selfMillis(spans, "store.get")) * 1000,
		"store.stats_us":           median(selfMillis(spans, "store.stats")) * 1000,
		"store.open_ms":            sum(selfMillis(spans, "store.open")),
	}
}

// copyDir copies the regular files under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

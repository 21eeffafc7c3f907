package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dragprof/internal/bench"
	"dragprof/internal/bytecode"
	"dragprof/internal/drag"
	"dragprof/internal/mj"
	"dragprof/internal/profile"
	"dragprof/internal/report"
	"dragprof/internal/store"
	"dragprof/internal/vm"
)

// programSet is the input of a profile workload: the embedded paper
// benchmarks it profiles, and the one it keeps in -short mode.
type programSet struct {
	all   []string
	short string
	// analyzeReps is how often each round analyzes each log: a log of a
	// few thousand records analyzes in tens of milliseconds, where one
	// sample per round says more about process start-up than analysis.
	analyzeReps int
	// setupReps is how many times set-up runs in one invocation; setup_s
	// is the median.
	setupReps int
}

var (
	// computePrograms interpret hundreds of millions of instructions but
	// allocate little: the interpreter and the use-event hook do the work.
	computePrograms = programSet{all: []string{"euler", "mc"}, short: "mc", analyzeReps: 5, setupReps: 3}
	// allocPrograms allocate most of the trailers, collections and log
	// bytes: deep GC, gzip and drag aggregation show here.
	allocPrograms = programSet{all: []string{"javac", "db", "jack", "raytrace", "jess", "juru", "analyzer"}, short: "jess", analyzeReps: 1, setupReps: 5}
)

// progRef is one compiled program and its uninstrumented reference run.
type progRef struct {
	name       string
	prog       *bytecode.Program
	output     string
	allocs     int64
	allocBytes int64
	cost       vm.Cost
}

// loadProgram compiles an embedded benchmark with its original input and
// runs it once without instrumentation, for the reference output and
// allocation counts the checks compare against.
func loadProgram(name string, tr *Tracer, parent int64) (*progRef, error) {
	h := tr.Start("mj.compile", parent)
	prog, err := compileBench(name)
	h.End()
	if err != nil {
		return nil, err
	}
	h = tr.Start("vm.run", parent)
	m, err := vm.New(prog, vm.Config{})
	if err == nil {
		err = m.Run()
	}
	h.End()
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", name, err)
	}
	c := m.CostReport()
	return &progRef{name: name, prog: prog, output: m.Output(), allocs: c.Allocations, allocBytes: c.AllocBytes, cost: c}, nil
}

// compileBench compiles an embedded paper benchmark with its original
// input, as `dragprof -bench name` does.
func compileBench(name string) (*bytecode.Program, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	names, texts, err := b.Sources(bench.Original, bench.OriginalInput)
	if err != nil {
		return nil, err
	}
	prog, _, err := mj.CompileWithStdlib(names, texts)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	return prog, nil
}

// siteSum is one nested allocation site's totals.
type siteSum struct {
	count int
	bytes int64
	drag  int64
}

// ownFold is the benchmark's own drag arithmetic over decoded trailers,
// made apart from the analyzer: Σ size × (collect − last touch), the
// reachable and in-use integrals, and drag per nested site (the report's
// default nesting depth).
type ownFold struct {
	records      int
	sizeSum      int64
	reach, inUse int64
	drag         int64
	sites        map[string]siteSum
}

const nestDepth = 4

func foldProfile(p *profile.Profile) ownFold {
	f := ownFold{records: len(p.Records), sites: map[string]siteSum{}}
	for _, r := range p.Records {
		f.sizeSum += r.Size
		if r.Interned {
			continue
		}
		touch := r.Create
		if r.LastUse != 0 {
			touch = r.LastUse
		}
		d := r.Size * max(0, r.Collect-touch)
		f.drag += d
		f.reach += r.Size * max(0, r.Collect-r.Create)
		if r.LastUse != 0 {
			f.inUse += r.Size * max(0, r.LastUse-r.Create)
		}
		desc := p.ChainDesc(r.Chain, nestDepth)
		s := f.sites[desc]
		s.count++
		s.bytes += r.Size
		s.drag += d
		f.sites[desc] = s
	}
	return f
}

// canonicalReport is what the checks read from a canonical report dump.
type canonicalReport struct {
	reach, inUse, drag int64
	nested             map[string]siteSum
}

// parseCanonical reads the totals line and the nested-site groups of a
// `draganalyze -format canonical` dump.
func parseCanonical(dump []byte) (canonicalReport, error) {
	rep := canonicalReport{nested: map[string]siteSum{}}
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	inNested, haveTotals := false, false
	desc := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "totals "):
			var objs int
			var bytesN, nu, nud int64
			if _, err := fmt.Sscanf(line, "totals objects=%d bytes=%d reach=%d inuse=%d drag=%d neverused=%d nudrag=%d",
				&objs, &bytesN, &rep.reach, &rep.inUse, &rep.drag, &nu, &nud); err != nil {
				return rep, fmt.Errorf("totals line %q: %w", line, err)
			}
			haveTotals = true
		case strings.HasPrefix(line, "nested groups="):
			inNested = true
		case inNested && strings.HasPrefix(line, "  nested key="):
			i := strings.LastIndex(line, " desc=")
			if i < 0 {
				return rep, fmt.Errorf("group line %q has no desc", line)
			}
			d, err := strconv.Unquote(line[i+len(" desc="):])
			if err != nil {
				return rep, fmt.Errorf("group line %q: %w", line, err)
			}
			desc = d
		case inNested && strings.HasPrefix(line, "    count=") && desc != "":
			var s siteSum
			var nu int
			if _, err := fmt.Sscanf(line, "    count=%d neverused=%d bytes=%d drag=%d", &s.count, &nu, &s.bytes, &s.drag); err != nil {
				return rep, fmt.Errorf("group line %q: %w", line, err)
			}
			old := rep.nested[desc]
			rep.nested[desc] = siteSum{old.count + s.count, old.bytes + s.bytes, old.drag + s.drag}
			desc = ""
		}
	}
	if !haveTotals {
		return rep, fmt.Errorf("no totals line in canonical dump")
	}
	return rep, sc.Err()
}

// compareSites reports every site whose totals differ between want (the
// benchmark's fold) and got (the program's answer).
func compareSites(o *outcome, what string, want, got map[string]siteSum) {
	for desc, w := range want {
		if g, ok := got[desc]; !ok || g != w {
			o.problem("%s: site %q: program says %+v, own fold %+v", what, desc, got[desc], w)
		}
	}
	for desc := range got {
		if _, ok := want[desc]; !ok {
			o.problem("%s: site %q reported but absent from own fold", what, desc)
		}
	}
}

// profileRound holds one round's totals.
type profileRound struct {
	logBytes int64
	records  int
}

// firstRound remembers a program's first-round outputs; later rounds must
// reproduce them byte for byte (dragprof is deterministic by design).
type firstRound struct {
	logSum [32]byte
	text   string
}

func profileWorkload(cfg *config, set programSet) (*outcome, error) {
	progs := set.all
	reps := set.setupReps
	if cfg.short {
		progs, reps = []string{set.short}, 1
	}
	if cfg.trace {
		return profileLayers(cfg, progs)
	}
	o := newOutcome()

	var refs map[string]*progRef
	var setupTimes []float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		refs = map[string]*progRef{}
		for _, name := range progs {
			ref, err := loadProgram(name, nil, 0)
			if err != nil {
				return nil, err
			}
			refs[name] = ref
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	o.set("setup_s", "s", median(setupTimes))

	rng := rand.New(rand.NewSource(cfg.seed))
	dragprofBin := filepath.Join(cfg.bin, "dragprof")
	analyzeBin := filepath.Join(cfg.bin, "draganalyze")
	first := map[string]firstRound{}
	var rounds []profileRound
	profMs, rssMB, analyzeMs := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	var checking time.Duration // first-round checks, left out of ops_s
	start := time.Now()
	for len(rounds) == 0 || (!cfg.short && time.Since(start).Seconds() < cfg.seconds) {
		var rd profileRound
		for _, i := range rng.Perm(len(progs)) {
			name := progs[i]
			ref := refs[name]
			logPath := filepath.Join(cfg.work, name+".log")
			o.attempted++
			pr, err := runProc(dragprofBin, "-bench", name, "-o", logPath)
			if err != nil {
				o.failed++
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				continue
			}
			if string(pr.stdout) != ref.output {
				o.problem("%s: dragprof printed %d bytes, the uninstrumented run %d bytes, and they differ", name, len(pr.stdout), len(ref.output))
			}
			logData, err := os.ReadFile(logPath)
			if err != nil {
				return nil, err
			}
			var ar procResult
			for rep := 0; rep < set.analyzeReps; rep++ {
				o.attempted++
				ar, err = runProc(analyzeBin, logPath)
				if err != nil {
					o.failed++
					fmt.Fprintln(os.Stderr, "perfbench:", err)
					break
				}
				analyzeMs[name] = append(analyzeMs[name], float64(ar.wall.Nanoseconds())/1e6)
			}
			if err != nil {
				continue
			}
			fr, seen := first[name]
			if !seen {
				fr = firstRound{logSum: sha256.Sum256(logData), text: string(ar.stdout)}
				first[name] = fr
				t0 := time.Now()
				checkProfileOutputs(o, cfg, ref, logPath, logData, ar.stdout)
				checking += time.Since(t0)
			} else {
				if sha256.Sum256(logData) != fr.logSum {
					o.problem("%s: log differs from the first round's", name)
				}
				if string(ar.stdout) != fr.text {
					o.problem("%s: report differs from the first round's", name)
				}
			}
			profMs[name] = append(profMs[name], float64(pr.wall.Nanoseconds())/1e6)
			rssMB[name] = append(rssMB[name], float64(pr.maxRSSKB)/1024)
			rd.logBytes += int64(len(logData))
			rd.records += int(ref.allocs)
		}
		rounds = append(rounds, rd)
	}
	elapsed := (time.Since(start) - checking).Seconds()

	// Per program, the median over rounds; across programs, the geomean.
	var profMed, rssMed, analyzeMed []float64
	var records int64
	analyzeTotal := 0.0
	for _, name := range progs {
		profMed = append(profMed, median(profMs[name]))
		rssMed = append(rssMed, median(rssMB[name]))
		analyzeMed = append(analyzeMed, median(analyzeMs[name]))
		records += refs[name].allocs
		analyzeTotal += median(analyzeMs[name]) / 1000
	}
	var bpo []float64
	for _, rd := range rounds {
		bpo = append(bpo, float64(rd.logBytes)/float64(rd.records))
	}
	o.set("ops_s", "ops/s", float64(o.attempted-o.failed)/elapsed)
	o.set("write_ms", "ms", mustGeomean(profMed))
	o.set("read_ms", "ms", mustGeomean(analyzeMed))
	o.set("peak_rss_mb", "MB", mustGeomean(rssMed))
	o.set("bytes_per_obj", "B/obj", median(bpo))
	o.info["analyze_krec_s"] = float64(records) / analyzeTotal / 1000
	o.info["programs"] = progs
	o.info["rounds"] = len(rounds)
	o.info["setup_s_each"] = setupTimes
	o.info["profile_ms_each_round"] = profMs
	return o, nil
}

// checkProfileOutputs runs every check on one program's first-round
// outputs: the log holds one trailer per allocation whose sizes sum to the
// bytes allocated, and the text and canonical reports agree with the
// benchmark's own drag arithmetic over the decoded trailers.
func checkProfileOutputs(o *outcome, cfg *config, ref *progRef, logPath string, logData, text []byte) {
	p, err := profile.ReadLog(bytes.NewReader(logData))
	if err != nil {
		o.problem("%s: log does not decode: %v", ref.name, err)
		return
	}
	f := foldProfile(p)
	if int64(f.records) != ref.allocs {
		o.problem("%s: %d trailers for %d allocations", ref.name, f.records, ref.allocs)
	}
	if f.sizeSum != ref.allocBytes {
		o.problem("%s: trailer sizes sum to %d, allocated bytes %d", ref.name, f.sizeSum, ref.allocBytes)
	}
	if f.drag != f.reach-f.inUse {
		o.problem("%s: own drag %d != reachable %d − in-use %d", ref.name, f.drag, f.reach, f.inUse)
	}
	lines := strings.SplitN(string(text), "\n", 3)
	wantHead := fmt.Sprintf("total allocation: %.2f MB over %d objects", float64(p.FinalClock)/(1<<20), f.records)
	wantTot := fmt.Sprintf("reachable integral: %.4f MB²   in-use integral: %.4f MB²   drag: %.4f MB²",
		drag.MB2(f.reach), drag.MB2(f.inUse), drag.MB2(f.drag))
	if len(lines) < 2 || lines[0] != wantHead || lines[1] != wantTot {
		o.problem("%s: report header %q, own arithmetic gives %q / %q", ref.name, lines[:min(2, len(lines))], wantHead, wantTot)
	}
	cr, err := runProc(filepath.Join(cfg.bin, "draganalyze"), "-format", "canonical", logPath)
	if err != nil {
		o.problem("%s: canonical report: %v", ref.name, err)
		return
	}
	rep, err := parseCanonical(cr.stdout)
	if err != nil {
		o.problem("%s: canonical report: %v", ref.name, err)
		return
	}
	if rep.drag != f.drag || rep.reach != f.reach || rep.inUse != f.inUse {
		o.problem("%s: report drag/reach/in-use %d/%d/%d, own %d/%d/%d", ref.name, rep.drag, rep.reach, rep.inUse, f.drag, f.reach, f.inUse)
	}
	if rep.drag != rep.reach-rep.inUse {
		o.problem("%s: report drag %d != reachable %d − in-use %d", ref.name, rep.drag, rep.reach, rep.inUse)
	}
	compareSites(o, ref.name+" report", f.sites, rep.nested)
}

// profileLayers is the traced run of a profile workload. It calls each
// layer's public functions directly, program by program, once untraced and
// once traced (in alternating order), and reports the traced passes'
// per-layer figures and the tracing overhead measured against the
// untraced passes. The last traced pass's logs then go through the store
// layer, as a dragserved holding them would serve them.
func profileLayers(cfg *config, progs []string) (*outcome, error) {
	o := newOutcome()
	var pairs []tracedPair
	var layerRuns []map[string]float64
	var last *Tracer
	var lastFacts passFacts
	off := newTracer(false)
	start := time.Now()
	for cycle := 0; len(layerRuns) == 0 || (!cfg.short && time.Since(start).Seconds() < cfg.seconds); cycle++ {
		tr := newTracer(true)
		var facts passFacts
		for i, name := range progs {
			var pair tracedPair
			for _, on := range pairOrder(cycle + i) {
				t0 := time.Now()
				if !on {
					if _, err := layerPass(o, off, []string{name}); err != nil {
						return nil, err
					}
					pair.untraced = time.Since(t0).Seconds()
					continue
				}
				f, err := layerPass(o, tr, []string{name})
				if err != nil {
					return nil, err
				}
				pair.traced = time.Since(t0).Seconds()
				facts.add(f)
			}
			pairs = append(pairs, pair)
		}
		layerRuns = append(layerRuns, profileLayerMetrics(tr.Spans(), facts))
		last, lastFacts = tr, facts
	}
	m := medians(layerRuns)
	storeTr := newTracer(true)
	sm, err := storePass(o, storeTr, filepath.Join(cfg.work, "store"), lastFacts.logs)
	if err != nil {
		return nil, err
	}
	for name, v := range sm {
		m[name] = v
	}
	for name, v := range m {
		o.set(name, layerUnits[name], v)
	}
	setOverhead(o, pairs, len(last.Spans())/len(progs))
	o.info["passes"] = len(layerRuns)
	if err := writeSpans(cfg, storeTr, "-store"); err != nil {
		return nil, err
	}
	return o, writeSpans(cfg, last, "")
}

// medians is, per metric, the median over several passes' figures.
func medians(runs []map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for name := range runs[0] {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r[name])
		}
		m[name] = median(vs)
	}
	return m
}

// storeReads is how many times the store pass reads back each run.
const storeReads = 3

// storePass puts a profile workload's logs through store.Sharded: one
// ingest each, a compaction, per-run lookups and reports, a diff of each
// run against the next, and a re-open that re-hashes every stored run.
// Each report's total drag must equal the benchmark's own fold.
func storePass(o *outcome, tr *Tracer, dir string, logs []*logEntry) (map[string]float64, error) {
	workers := runtime.GOMAXPROCS(0)
	st, err := store.OpenSharded(dir, serveShards)
	if err != nil {
		return nil, err
	}
	for _, le := range logs {
		h := tr.Start("store.ingest", 0)
		res, err := st.Ingest(bytes.NewReader(le.body), workers)
		h.End()
		if err != nil {
			return nil, fmt.Errorf("store pass: ingest %s: %w", le.name, err)
		}
		if res.Meta == nil || res.Meta.ID != le.id {
			return nil, fmt.Errorf("store pass: %s stored under another id", le.name)
		}
	}
	h := tr.Start("store.compact", 0)
	err = st.Compact(workers)
	h.End()
	if err != nil {
		return nil, fmt.Errorf("store pass: compaction: %w", err)
	}
	reports := make([]*drag.Report, len(logs))
	for r := 0; r < storeReads; r++ {
		for i, le := range logs {
			h := tr.Start("store.get", 0)
			_, ok := st.Get(le.id)
			h.End()
			if !ok {
				return nil, fmt.Errorf("store pass: run %s missing", le.id)
			}
			h = tr.Start("store.report", 0)
			rep, err := st.Report(le.id, drag.Options{}, workers)
			h.End()
			if err != nil {
				return nil, fmt.Errorf("store pass: report %s: %w", le.name, err)
			}
			if rep.TotalDrag != le.fold.drag {
				o.problem("%s: stored run's report drag %d, own fold %d", le.name, rep.TotalDrag, le.fold.drag)
			}
			reports[i] = rep
			h = tr.Start("store.stats", 0)
			_, _, _ = st.NumRuns(), st.TotalBytes(), st.SalvagedRuns()
			h.End()
		}
	}
	for i := range logs {
		h := tr.Start("drag.compare", 0)
		_, err := drag.CompareChecked(reports[i], reports[(i+1)%len(logs)])
		h.End()
		if err != nil {
			return nil, fmt.Errorf("store pass: diff: %w", err)
		}
	}
	h = tr.Start("store.open", 0)
	_, err = store.OpenSharded(dir, serveShards)
	h.End()
	if err != nil {
		return nil, fmt.Errorf("store pass: re-open: %w", err)
	}
	return storeLayerMetrics(tr.Spans(), len(logs)), nil
}

// passFacts are the counts one layer pass observes, and the gzip logs it
// wrote.
type passFacts struct {
	instructions, uses, trailers, collections, marked, gzBytes int64
	logs                                                       []*logEntry
}

func (f *passFacts) add(g passFacts) {
	f.instructions += g.instructions
	f.uses += g.uses
	f.trailers += g.trailers
	f.collections += g.collections
	f.marked += g.marked
	f.gzBytes += g.gzBytes
	f.logs = append(f.logs, g.logs...)
}

// layerPass runs every program through each layer once, in the order
// dragprof and draganalyze call them, with one span per call.
func layerPass(o *outcome, tr *Tracer, progs []string) (passFacts, error) {
	var f passFacts
	for _, name := range progs {
		root := tr.Start("program", 0)
		id := root.ID()
		ref, err := loadProgram(name, tr, id)
		if err != nil {
			return f, err
		}
		o.attempted++
		h := tr.Start("profile.run", id)
		p, m, err := profile.Run(ref.prog, name, vm.Config{})
		h.End()
		if err != nil {
			return f, fmt.Errorf("profile %s: %w", name, err)
		}
		if m.Output() != ref.output {
			o.problem("%s: profiled output differs from the uninstrumented run", name)
		}
		if int64(len(p.Records)) != ref.allocs {
			o.problem("%s: %d trailers for %d allocations", name, len(p.Records), ref.allocs)
		}
		c := m.CostReport()
		f.instructions += ref.cost.Instructions
		f.trailers += int64(len(p.Records))
		for _, r := range p.Records {
			f.uses += r.Uses
		}
		f.collections += c.GC.Collections
		f.marked += c.GC.Marked

		var plainLog, gzLog bytes.Buffer
		h = tr.Start("profile.encode", id)
		err = profile.WriteBinaryLog(&plainLog, p, profile.BinaryOptions{})
		h.End()
		if err != nil {
			return f, err
		}
		h = tr.Start("profile.write_gz", id)
		err = profile.WriteBinaryLog(&gzLog, p, profile.BinaryOptions{Compress: true})
		h.End()
		if err != nil {
			return f, err
		}
		f.gzBytes += int64(gzLog.Len())

		h = tr.Start("profile.decode", id)
		dp, err := profile.ReadLog(bytes.NewReader(gzLog.Bytes()))
		h.End()
		if err != nil {
			return f, err
		}
		h = tr.Start("drag.aggregate", id)
		rep := drag.Analyze(dp, drag.Options{})
		h.End()
		h = tr.Start("drag.parallel", id)
		prep := drag.AnalyzeParallel(dp, drag.Options{}, runtime.GOMAXPROCS(0))
		h.End()
		own := foldProfile(dp)
		if rep.TotalDrag != own.drag || prep.TotalDrag != own.drag {
			o.problem("%s: serial/parallel drag %d/%d, own %d", name, rep.TotalDrag, prep.TotalDrag, own.drag)
		}
		digest := sha256.Sum256(gzLog.Bytes())
		f.logs = append(f.logs, &logEntry{id: hex.EncodeToString(digest[:]), name: name, body: gzLog.Bytes(), records: len(dp.Records), fold: own})
		h = tr.Start("report.render", id)
		report.DragText(io.Discard, prep, len(dp.Records), 10)
		h.End()
		root.End()
	}
	return f, nil
}

// profileLayerMetrics turns one traced pass into the per-layer figures.
func profileLayerMetrics(spans []Span, f passFacts) map[string]float64 {
	vmRun := selfMillis(spans, "vm.run")
	profRun := selfMillis(spans, "profile.run")
	decode := selfMillis(spans, "profile.decode")
	agg := selfMillis(spans, "drag.aggregate")
	trailers := float64(f.trailers)
	return map[string]float64{
		"mj.compile_ms":             sum(selfMillis(spans, "mj.compile")),
		"vm.run_ms":                 mustGeomean(vmRun),
		"vm.ns_per_insn":            sum(vmRun) * 1e6 / float64(f.instructions),
		"vm.instructions":           float64(f.instructions),
		"profile.run_ms":            mustGeomean(profRun),
		"profile.ns_per_use":        (sum(profRun) - sum(vmRun)) * 1e6 / float64(f.uses),
		"profile.use_events":        float64(f.uses),
		"profile.trailers":          trailers,
		"gc.collections":            float64(f.collections),
		"gc.marked":                 float64(f.marked),
		"profile.encode_ms":         sum(selfMillis(spans, "profile.encode")),
		"profile.gzip_ms":           sum(selfMillis(spans, "profile.write_gz")) - sum(selfMillis(spans, "profile.encode")),
		"profile.log_bytes_gz":      float64(f.gzBytes),
		"profile.decode_krec_s":     trailers / sum(decode),
		"drag.aggregate_ns_per_rec": sum(agg) * 1e6 / trailers,
		"drag.parallel_ms":          sum(selfMillis(spans, "drag.parallel")),
		"report.render_ms":          sum(selfMillis(spans, "report.render")),
	}
}

// writeSpans keeps the last traced pass's spans for later reading.
func writeSpans(cfg *config, tr *Tracer, suffix string) error {
	if tr == nil {
		return nil
	}
	if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d%s.json", cfg.workload, cfg.seed, suffix))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	printJSON(map[string]any{"spans": path, "count": len(tr.Spans())})
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dragprof/internal/profile"
	"dragprof/internal/store"
	"dragprof/internal/vm"
)

// servedName is one workload name of the serve-mixed corpus: the program
// (of the same name) whose exact profile its runs downsample, its one
// sampling rate, how many runs the store holds before the timed phase,
// and whether the timed phase pushes more. Runs per name (2 to 8 at the start) set compaction cost; the
// never-pushed filler sets the total run count that lookups and scrapes
// walk.
type servedName struct {
	name    string
	rate    float64
	preload int
	pushed  bool
}

var (
	serveNames = []servedName{
		{"db", 1e-3, 8, true},
		{"jess", 1e-3, 4, true},
		{"juru", 1e-3, 2, true},
		{"javac", 5e-4, 64, false},
	}
	serveNamesShort = []servedName{
		{"db", 2e-3, 3, true},
		{"jess", 2e-3, 2, true},
		{"juru", 2e-3, 2, true},
		{"javac", 1e-3, 8, false},
	}
)

const (
	serveShards = 4
	// The named fault: two live sampled runs of one program with
	// different sampler seeds intern different chain tables, which the
	// store refuses to merge, so every /sites on their tenant fails.
	faultProgram = "jack"
	faultRate    = 0.01
	// faultBody is what the named fault answers, with status 500.
	faultBody = "internal store error"
	tenantA   = "alpha"
	tenantB   = "beta"
)

var faultSeeds = []uint64{1, 2}

// serveSetupReps is how many times set-up runs in one invocation; setup_s
// is the median. Each set-up builds the corpus, preloads the store with
// durable ingests and starts a fresh dragserved.
const serveSetupReps = 5

func token(tenant string) string { return tenant + "-token" }

// opKind is one operation of the closed-loop mix.
type opKind int

const (
	opPush opKind = iota
	opSites
	opSitesFault
	opReport
	opDiff
	opLookup
	opMetrics
	numOps
)

var opNames = [numOps]string{"push", "sites", "sites_fault", "report", "diff", "lookup", "metrics"}

// roundMix is one client round, in order: every client runs whole
// rounds, so the failing /sites calls on the fault tenant are exactly 1/20
// of attempts. Each push is followed by a /sites read, as from a dashboard
// told of the new run, so that read pays the synchronous compaction and
// the push never waits behind a background one.
var roundMix = []opKind{
	opPush, opSites, opReport, opLookup, opDiff, opSites, opLookup, opMetrics, opSites, opReport,
	opPush, opSites, opReport, opLookup, opDiff, opSites, opLookup, opMetrics, opSites, opSitesFault,
}

// logEntry is one log the benchmark made: its bytes, id and own fold.
type logEntry struct {
	id      string
	name    string
	body    []byte
	records int
	fold    ownFold
}

// corpus makes distinct, mergeable logs: downsample replays of one exact
// profile per program, each at its name's rate with its own seed.
type corpus struct {
	exact map[string]*profile.Profile
	seed  uint64
}

// mix derives a well-spread sampler seed from the workload seed and a
// log's coordinates (splitmix64 finalizer).
func mix(vals ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	if h == 0 {
		h = 1
	}
	return h
}

func newCorpus(names []servedName, seed int64) (*corpus, error) {
	c := &corpus{exact: map[string]*profile.Profile{}, seed: uint64(seed)}
	for _, n := range names {
		prog, err := compileBench(n.name)
		if err != nil {
			return nil, err
		}
		p, _, err := profile.Run(prog, n.name, vm.Config{})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", n.name, err)
		}
		c.exact[n.name] = p
	}
	return c, nil
}

// make builds the log for one (kind, index) coordinate of a name.
func (c *corpus) make(n servedName, kind, index uint64) (*logEntry, error) {
	p, err := profile.Downsample(c.exact[n.name], n.rate, mix(c.seed, kind, index, uint64(len(n.name))))
	if err != nil {
		return nil, err
	}
	return encodeEntry(p)
}

func encodeEntry(p *profile.Profile) (*logEntry, error) {
	var buf bytes.Buffer
	if err := profile.WriteBinaryLog(&buf, p, profile.BinaryOptions{Compress: true}); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return &logEntry{id: hex.EncodeToString(sum[:]), name: p.Name, body: buf.Bytes(), records: len(p.Records), fold: foldProfile(p)}, nil
}

// server is a running dragserved process.
type server struct {
	proc *measuredCmd
	base string
	dir  string
	errf *os.File
	done chan struct{}
	// Set when done closes: the server's peak RSS and how it exited.
	rssKB   int64
	exitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startServer(cfg *config, dir string) (*server, error) {
	tenants := fmt.Sprintf(`[{"name":%q,"token":%q},{"name":%q,"token":%q}]`, tenantA, token(tenantA), tenantB, token(tenantB))
	tf := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tf, []byte(tenants), 0o644); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	errf, err := os.Create(filepath.Join(dir, "dragserved.stderr"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	proc, err := startMeasured(errf, errf, filepath.Join(cfg.bin, "dragserved"), "-addr", addr, "-data", filepath.Join(dir, "data"),
		"-shards", strconv.Itoa(serveShards), "-tenants", tf)
	if err != nil {
		errf.Close()
		return nil, err
	}
	s := &server{proc: proc, base: "http://" + addr, dir: dir, errf: errf, done: make(chan struct{})}
	go func() {
		_, s.rssKB, s.exitErr = proc.wait()
		close(s.done)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(client *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("dragserved exited before it was ready")
		default:
		}
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("dragserved not ready after 60s")
}

// stop drains dragserved with SIGTERM, waits for it to exit and returns
// its peak RSS in KiB.
func (s *server) stop() (int64, error) {
	defer s.errf.Close()
	_ = s.proc.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		_ = s.proc.cmd.Process.Kill()
		<-s.done
		return 0, fmt.Errorf("dragserved did not drain within 60s")
	}
	if s.exitErr != nil {
		return s.rssKB, fmt.Errorf("dragserved: %w", s.exitErr)
	}
	return s.rssKB, nil
}

// serveEnv is one set-up instance: the corpus, the running server and
// everything acknowledged so far.
type serveEnv struct {
	cfg    *config
	names  []servedName
	corpus *corpus
	srv    *server
	client *http.Client
	tr     *Tracer

	mu         sync.Mutex
	acked      map[string][]*logEntry // tenant A, per name, in ack order
	ackedIDs   map[string]*logEntry
	agg        map[string]map[string]siteSum // tenant A, per name: Σ of acked folds
	inflight   map[string]*logEntry
	faultLogs  []*logEntry
	ackedBytes int64
	nextPush   uint64
	lat        [numOps][]float64
	out        *outcome
	setupParts map[string]float64
}

func (e *serveEnv) ack(le *logEntry) {
	e.acked[le.name] = append(e.acked[le.name], le)
	e.ackedIDs[le.id] = le
	e.ackedBytes += int64(len(le.body))
	a := e.agg[le.name]
	if a == nil {
		a = map[string]siteSum{}
		e.agg[le.name] = a
	}
	for d, s := range le.fold.sites {
		o := a[d]
		a[d] = siteSum{o.count + s.count, o.bytes + s.bytes, o.drag + s.drag}
	}
}

// serveSetup builds the corpus, preloads tenant A's store through the
// store API, starts dragserved on it, waits for /readyz and pushes the
// fault pair into tenant B.
func serveSetup(cfg *config, names []servedName, dir string) (*serveEnv, error) {
	t0 := time.Now()
	parts := map[string]float64{}
	lap := func(name string) {
		parts[name] = time.Since(t0).Seconds()
		t0 = time.Now()
	}
	c, err := newCorpus(names, cfg.seed)
	if err != nil {
		return nil, err
	}
	lap("corpus_s")
	e := &serveEnv{
		cfg: cfg, names: names, corpus: c,
		acked: map[string][]*logEntry{}, ackedIDs: map[string]*logEntry{},
		agg: map[string]map[string]siteSum{}, inflight: map[string]*logEntry{},
		client: &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.OpenSharded(filepath.Join(dir, "data", "tenants", tenantA), serveShards)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	for i, n := range names {
		for j := 0; j < n.preload; j++ {
			le, err := c.make(n, 1, uint64(i)<<32|uint64(j))
			if err != nil {
				return nil, err
			}
			res, err := st.Ingest(bytes.NewReader(le.body), workers)
			if err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			if res.Meta == nil || res.Meta.ID != le.id {
				return nil, fmt.Errorf("preload: run %s stored under another id", le.id)
			}
			e.ack(le)
		}
	}
	if err := st.Compact(workers); err != nil {
		return nil, fmt.Errorf("preload compaction: %w", err)
	}
	lap("preload_s")

	prog, err := compileBench(faultProgram)
	if err != nil {
		return nil, err
	}
	for _, s := range faultSeeds {
		p, _, err := profile.Run(prog, faultProgram, vm.Config{SampleRate: faultRate, SampleSeed: s})
		if err != nil {
			return nil, fmt.Errorf("sampled %s: %w", faultProgram, err)
		}
		le, err := encodeEntry(p)
		if err != nil {
			return nil, err
		}
		e.faultLogs = append(e.faultLogs, le)
	}
	lap("fault_pair_s")

	e.srv, err = startServer(cfg, dir)
	if err != nil {
		return nil, err
	}
	if err := e.srv.waitReady(e.client); err != nil {
		_, _ = e.srv.stop()
		return nil, err
	}
	lap("start_ready_s")
	for _, le := range e.faultLogs {
		status, data, _, err := e.call(http.MethodPost, "/api/v1/runs", tenantB, le.body)
		if err != nil || status != http.StatusCreated {
			_, _ = e.srv.stop()
			return nil, fmt.Errorf("pushing the fault pair: status %d: %v %s", status, err, data)
		}
		e.ackedBytes += int64(len(le.body))
	}
	lap("push_pair_s")
	e.setupParts = parts
	return e, nil
}

// call makes one HTTP request as tenant (no auth when tenant is "") and
// returns the status, the whole body and the time until the body was read.
func (e *serveEnv) call(method, path, tenant string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.srv.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if tenant != "" {
		req.Header.Set("Authorization", "Bearer "+token(tenant))
	}
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

func serveWorkload(cfg *config) (*outcome, error) {
	names, reps := serveNames, serveSetupReps
	if cfg.short {
		names = serveNamesShort
	}
	if cfg.short || cfg.trace {
		reps = 1 // setup_s is reported by full untraced runs only
	}
	o := newOutcome()
	var e *serveEnv
	var setupTimes []float64
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("serve%d", rep))
		start := time.Now()
		env, err := serveSetup(cfg, names, dir)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if rep < reps-1 {
			if _, err := env.srv.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		e = env
	}
	e.out = o
	if cfg.trace {
		e.tr = newTracer(true)
	}
	before, err := e.scrape()
	if err != nil {
		_, _ = e.srv.stop()
		return nil, err
	}
	elapsed := e.closedLoop()
	after, err := e.scrape()
	if err != nil {
		_, _ = e.srv.stop()
		return nil, err
	}
	e.finalChecks()
	rssKB, err := e.srv.stop()
	if err != nil {
		return nil, err
	}
	storeBytes, err := dirBytes(filepath.Join(e.srv.dir, "data"))
	if err != nil {
		return nil, err
	}

	ok := 0
	for k := opKind(0); k < numOps; k++ {
		ok += len(e.lat[k])
	}
	compactions := after[`dragserved_compactions_total`] - before[`dragserved_compactions_total`]
	compactErrors := after[`dragserved_compact_errors_total`] - before[`dragserved_compact_errors_total`]
	o.info["clients"] = clientCount()
	o.info["timed_s"] = elapsed.Seconds()
	o.info["setup_s_each"] = setupTimes
	o.info["setup_parts_last"] = e.setupParts
	o.info["runs_at_end"] = len(e.ackedIDs)
	o.info["compactions"] = compactions
	o.info["compact_errors"] = compactErrors
	o.info["fault_chain_nodes"] = faultChainNodes(e)
	for k := opKind(0); k < numOps; k++ {
		o.info[opNames[k]+"_latency"] = latencySummary(e.lat[k])
	}
	if cfg.trace {
		return serveLayers(e, o, compactions, compactErrors)
	}
	var reads []float64
	for _, op := range []opKind{opSites, opReport, opDiff, opLookup, opMetrics} {
		reads = append(reads, median(e.lat[op]))
	}
	records := 0
	for _, le := range e.ackedIDs {
		records += le.records
	}
	for _, le := range e.faultLogs {
		records += le.records
	}
	o.info["store_bytes_per_log_byte"] = float64(storeBytes) / float64(e.ackedBytes)
	o.set("setup_s", "s", median(setupTimes))
	o.set("ops_s", "ops/s", float64(ok)/elapsed.Seconds())
	o.set("write_ms", "ms", median(e.lat[opPush]))
	o.set("read_ms", "ms", mustGeomean(reads))
	o.set("peak_rss_mb", "MB", float64(rssKB)/1024)
	o.set("bytes_per_obj", "B/obj", float64(storeBytes)/float64(records))
	return o, nil
}

// faultChainNodes reports the chain-table sizes of the fault pair: when
// they differ, the store cannot merge the two runs.
func faultChainNodes(e *serveEnv) []int {
	var out []int
	for _, le := range e.faultLogs {
		p, err := profile.ReadLog(bytes.NewReader(le.body))
		if err == nil {
			out = append(out, len(p.ChainNodes))
		}
	}
	return out
}

// latencySummary is the reference-only view of one endpoint's latencies:
// sample count, median and the highest percentile the count supports.
func latencySummary(ms []float64) map[string]any {
	s := map[string]any{"n": len(ms)}
	if len(ms) == 0 {
		return s
	}
	s["p50_ms"] = median(ms)
	if p, label, ok := tailPercentile(len(ms)); ok {
		s[label+"_ms"] = percentile(ms, p)
	}
	return s
}

// clientCount is the closed loop's size: callers such as dragprof -push
// and dashboards each wait for their reply, so the load is a closed loop
// of one client per CPU but one, which is left to dragserved's background
// compaction; at least one client and at most four.
func clientCount() int { return min(max(runtime.NumCPU()-1, 1), 4) }

// closedLoop runs the clients for the timed phase and returns its length.
func (e *serveEnv) closedLoop() time.Duration {
	start := time.Now()
	deadline := start.Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(mix(uint64(e.cfg.seed), 7, uint64(c)))))
			for round := 0; round == 0 || (!e.cfg.short && time.Now().Before(deadline)); round++ {
				for _, op := range roundMix {
					e.do(op, rng)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// do runs and checks one operation, recording its latency when it
// succeeded and counting it as failed otherwise.
func (e *serveEnv) do(op opKind, rng *rand.Rand) {
	h := e.tr.Start("http."+opNames[op], 0)
	ok, dur := e.dispatch(op, rng)
	h.End()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.out.attempted++
	if !ok {
		e.out.failed++
		return
	}
	e.lat[op] = append(e.lat[op], float64(dur.Nanoseconds())/1e6)
}

// logf reports an operation that failed; failures are counted, and only
// wrong answers from operations that succeeded make a run incorrect.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (e *serveEnv) problem(format string, args ...any) {
	e.mu.Lock()
	e.out.problem(format, args...)
	e.mu.Unlock()
}

// pick returns a random acknowledged run of a random name of tenant A;
// with two, two distinct runs of one name (for /diff).
func (e *serveEnv) pick(rng *rand.Rand, two bool) (*logEntry, *logEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var pool []string
	for _, n := range e.names {
		if len(e.acked[n.name]) >= 2 || (!two && len(e.acked[n.name]) > 0) {
			pool = append(pool, n.name)
		}
	}
	runs := e.acked[pool[rng.Intn(len(pool))]]
	a := rng.Intn(len(runs))
	if !two {
		return runs[a], nil
	}
	b := rng.Intn(len(runs) - 1)
	if b >= a {
		b++
	}
	return runs[a], runs[b]
}

func (e *serveEnv) dispatch(op opKind, rng *rand.Rand) (bool, time.Duration) {
	switch op {
	case opPush:
		return e.push()
	case opSites:
		return e.sites()
	case opSitesFault:
		status, data, dur, err := e.call(http.MethodGet, "/api/v1/sites", tenantB, nil)
		switch {
		case err == nil && status == http.StatusOK:
			e.checkFaultSites(data)
			return true, dur
		case err == nil && status == http.StatusInternalServerError && strings.TrimSpace(string(data)) == faultBody:
			return false, dur // the named fault
		default:
			// Any other failure is a new fault, not the named one.
			logf("fault-tenant sites: status %d: %v %s", status, err, data)
			e.problem("fault-tenant sites: status %d (%v), not the named fault's 500 %q", status, err, faultBody)
			return false, dur
		}
	case opReport:
		le, _ := e.pick(rng, false)
		status, data, dur, err := e.call(http.MethodGet, "/api/v1/runs/"+le.id+"/report?format=json&top=1000000", tenantA, nil)
		if err != nil || status != http.StatusOK {
			logf("report %s: status %d: %v", le.id, status, err)
			return false, dur
		}
		e.checkReport(le, data)
		return true, dur
	case opDiff:
		a, b := e.pick(rng, true)
		status, data, dur, err := e.call(http.MethodGet, "/api/v1/diff?base="+a.id+"&head="+b.id, tenantA, nil)
		if err != nil || status != http.StatusOK {
			logf("diff %s %s: status %d: %v", a.id, b.id, status, err)
			return false, dur
		}
		e.checkDiff(a, b, data)
		return true, dur
	case opLookup:
		le, _ := e.pick(rng, false)
		status, data, dur, err := e.call(http.MethodGet, "/api/v1/runs/"+le.id, tenantA, nil)
		if err != nil || status != http.StatusOK {
			logf("lookup %s: status %d: %v", le.id, status, err)
			return false, dur
		}
		var m store.RunMeta
		if err := json.Unmarshal(data, &m); err != nil || m.ID != le.id || m.Name != le.name || m.Records != le.records || m.Bytes != int64(len(le.body)) {
			e.problem("lookup %s: got %+v (%v), pushed %s with %d records, %d bytes", le.id, m, err, le.name, le.records, len(le.body))
		}
		return true, dur
	default: // opMetrics
		e.mu.Lock()
		low := len(e.ackedIDs)
		e.mu.Unlock()
		status, data, dur, err := e.call(http.MethodGet, "/metrics", "", nil)
		if err != nil || status != http.StatusOK {
			logf("metrics: status %d: %v", status, err)
			return false, dur
		}
		e.mu.Lock()
		high := len(e.ackedIDs) + len(e.inflight)
		e.mu.Unlock()
		g, err := parseMetrics(data)
		runs := g[runGauge(tenantA)]
		if err != nil || runs < int64(low) || runs > int64(high) {
			e.problem("metrics: run gauge %d outside [%d, %d] (%v)", runs, low, high, err)
		}
		return true, dur
	}
}

func runGauge(tenant string) string {
	return fmt.Sprintf("dragserved_tenant_store_runs{tenant=%q}", tenant)
}

// push uploads the next distinct log of the pushed names and checks that
// the acknowledged id is the SHA-256 of the bytes sent.
func (e *serveEnv) push() (bool, time.Duration) {
	e.mu.Lock()
	k := e.nextPush
	e.nextPush++
	e.mu.Unlock()
	var pushed []servedName
	for _, n := range e.names {
		if n.pushed {
			pushed = append(pushed, n)
		}
	}
	n := pushed[int(k)%len(pushed)]
	le, err := e.corpus.make(n, 2, k)
	if err != nil {
		e.problem("making push %d: %v", k, err)
		return false, 0
	}
	e.mu.Lock()
	e.inflight[le.id] = le
	e.mu.Unlock()
	status, data, dur, err := e.call(http.MethodPost, "/api/v1/runs", tenantA, le.body)
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.inflight, le.id)
	if err != nil || (status != http.StatusCreated && status != http.StatusOK) {
		logf("push %s: status %d: %v %s", le.id, status, err, data)
		return false, dur
	}
	var resp struct {
		Run *store.RunMeta `json:"run"`
	}
	if err := json.Unmarshal(data, &resp); err != nil || resp.Run == nil || resp.Run.ID != le.id {
		e.out.problem("push: acknowledged %s, SHA-256 of the bytes is %s (%v)", data, le.id, err)
		return true, dur
	}
	if e.ackedIDs[le.id] == nil {
		e.ack(le)
	}
	return true, dur
}

// siteJSON is one /sites row.
type siteJSON struct {
	Name    string `json:"name"`
	Site    string `json:"site"`
	Runs    int    `json:"runs"`
	Objects int    `json:"objects"`
	Bytes   int64  `json:"bytes"`
	Drag    int64  `json:"dragByte2"`
}

// sitesSnapshot is what was acknowledged per name when a /sites call
// started: the run count and the own fold over those runs.
type sitesSnapshot struct {
	runs map[string]int
	agg  map[string]map[string]siteSum
}

func (e *serveEnv) snapshotLocked() sitesSnapshot {
	snap := sitesSnapshot{runs: map[string]int{}, agg: map[string]map[string]siteSum{}}
	for name, runs := range e.acked {
		snap.runs[name] = len(runs)
		a := map[string]siteSum{}
		addFold(a, e.agg[name])
		snap.agg[name] = a
	}
	return snap
}

// sites calls /api/v1/sites on tenant A and checks every total against the
// benchmark's own sum over the acknowledged logs of that workload. A push
// that overlaps the call may or may not be merged, so the check accepts
// the acknowledged set at the call's start plus any subset of the pushes
// that overlapped it whose size matches the reported run count.
func (e *serveEnv) sites() (bool, time.Duration) {
	e.mu.Lock()
	snap := e.snapshotLocked()
	e.mu.Unlock()
	status, data, dur, err := e.call(http.MethodGet, "/api/v1/sites", tenantA, nil)
	if err != nil || status != http.StatusOK {
		logf("sites: status %d: %v %s", status, err, data)
		return false, dur
	}
	e.checkSites(snap, data)
	return true, dur
}

func (e *serveEnv) checkSites(snap sitesSnapshot, data []byte) {
	var rows []siteJSON
	if err := json.Unmarshal(data, &rows); err != nil {
		e.problem("sites: %v", err)
		return
	}
	got := map[string]map[string]siteSum{}
	runs := map[string]int{}
	for _, r := range rows {
		if got[r.Name] == nil {
			got[r.Name] = map[string]siteSum{}
		}
		s := got[r.Name][r.Site]
		got[r.Name][r.Site] = siteSum{s.count + r.Objects, s.bytes + r.Bytes, s.drag + r.Drag}
		runs[r.Name] = r.Runs
	}
	extra := map[string][]*logEntry{}
	e.mu.Lock()
	for _, n := range e.names {
		extra[n.name] = append(extra[n.name], e.acked[n.name][snap.runs[n.name]:]...)
	}
	for _, le := range e.inflight {
		extra[le.name] = append(extra[le.name], le)
	}
	e.mu.Unlock()
	for _, n := range e.names {
		n0 := snap.runs[n.name]
		need := runs[n.name] - n0
		if need < 0 || need > len(extra[n.name]) {
			e.problem("sites %s: %d runs merged, %d acknowledged before the call, %d overlapping pushes", n.name, runs[n.name], n0, len(extra[n.name]))
			continue
		}
		if !anySubsetMatches(snap.agg[n.name], extra[n.name], need, got[n.name]) {
			e.problem("sites %s: totals over %d runs match no set of acknowledged logs", n.name, runs[n.name])
		}
	}
}

func addFold(dst, src map[string]siteSum) {
	for d, s := range src {
		o := dst[d]
		dst[d] = siteSum{o.count + s.count, o.bytes + s.bytes, o.drag + s.drag}
	}
}

func sameSites(a, b map[string]siteSum) bool {
	if len(a) != len(b) {
		return false
	}
	for d, s := range a {
		if b[d] != s {
			return false
		}
	}
	return true
}

// anySubsetMatches tries every size-k subset of extra on top of base.
func anySubsetMatches(base map[string]siteSum, extra []*logEntry, k int, got map[string]siteSum) bool {
	if k == 0 {
		return sameSites(base, got)
	}
	for i := range extra {
		next := map[string]siteSum{}
		addFold(next, base)
		addFold(next, extra[i].fold.sites)
		if anySubsetMatches(next, extra[i+1:], k-1, got) {
			return true
		}
	}
	return false
}

// checkFaultSites checks tenant B's /sites against the benchmark's own fold
// of the fault pair, for the day the store learns to merge them.
func (e *serveEnv) checkFaultSites(data []byte) {
	var rows []siteJSON
	if err := json.Unmarshal(data, &rows); err != nil {
		e.problem("fault-tenant sites: %v", err)
		return
	}
	got := map[string]siteSum{}
	for _, r := range rows {
		s := got[r.Site]
		got[r.Site] = siteSum{s.count + r.Objects, s.bytes + r.Bytes, s.drag + r.Drag}
	}
	want := map[string]siteSum{}
	for _, le := range e.faultLogs {
		addFold(want, le.fold.sites)
	}
	if !sameSites(want, got) {
		e.problem("fault-tenant sites differ from the own fold of the pushed pair")
	}
}

// decodeNumbers unmarshals JSON keeping integers exact.
func decodeNumbers(data []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(data))
	d.UseNumber()
	return d.Decode(v)
}

func num(v any) int64 {
	if n, ok := v.(json.Number); ok {
		i, err := n.Int64()
		if err == nil {
			return i
		}
	}
	return -1
}

// checkReport compares every site of a /report JSON answer with the
// benchmark's own fold of the pushed log.
func (e *serveEnv) checkReport(le *logEntry, data []byte) {
	var diags []struct {
		Properties map[string]any `json:"properties"`
	}
	if err := decodeNumbers(data, &diags); err != nil {
		e.problem("report %s: %v", le.id, err)
		return
	}
	got := map[string]siteSum{}
	for _, d := range diags {
		site, ok := d.Properties["site"].(string)
		if !ok {
			continue
		}
		s := got[site]
		got[site] = siteSum{s.count + int(num(d.Properties["objects"])), s.bytes + num(d.Properties["bytes"]), s.drag + num(d.Properties["dragByte2"])}
	}
	if !sameSites(le.fold.sites, got) {
		e.problem("report %s: site drag figures differ from the own fold", le.id)
	}
}

// checkDiff compares both sides of every /diff site with the own folds.
func (e *serveEnv) checkDiff(a, b *logEntry, data []byte) {
	var resp struct {
		Workload string `json:"workload"`
		Sites    []struct {
			Site      string `json:"site"`
			BaseDrag  int64  `json:"baseDrag"`
			HeadDrag  int64  `json:"headDrag"`
			BaseCount int    `json:"baseObjects"`
			HeadCount int    `json:"headObjects"`
			BaseBytes int64  `json:"baseBytes"`
			HeadBytes int64  `json:"headBytes"`
		} `json:"sites"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		e.problem("diff: %v", err)
		return
	}
	base, head := map[string]siteSum{}, map[string]siteSum{}
	for _, s := range resp.Sites {
		if s.BaseCount > 0 {
			base[s.Site] = siteSum{s.BaseCount, s.BaseBytes, s.BaseDrag}
		}
		if s.HeadCount > 0 {
			head[s.Site] = siteSum{s.HeadCount, s.HeadBytes, s.HeadDrag}
		}
	}
	if resp.Workload != a.name || !sameSites(a.fold.sites, base) || !sameSites(b.fold.sites, head) {
		e.problem("diff %s..%s: drag figures differ from the own folds", a.id, b.id)
	}
}

// scrape reads /metrics into a map of series to values.
func (e *serveEnv) scrape() (map[string]int64, error) {
	status, data, _, err := e.call(http.MethodGet, "/metrics", "", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d: %v", status, err)
	}
	return parseMetrics(data)
}

func parseMetrics(data []byte) (map[string]int64, error) {
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// finalChecks runs once the clients have stopped: each tenant's /runs
// lists exactly the acknowledged ids, the run gauges count the distinct
// acknowledged logs, and /sites matches the own fold of everything.
func (e *serveEnv) finalChecks() {
	want := map[string][]string{tenantA: nil, tenantB: nil}
	for id := range e.ackedIDs {
		want[tenantA] = append(want[tenantA], id)
	}
	for _, le := range e.faultLogs {
		want[tenantB] = append(want[tenantB], le.id)
	}
	g, err := e.scrape()
	if err != nil {
		e.problem("final metrics: %v", err)
	}
	for _, tenant := range []string{tenantA, tenantB} {
		status, data, _, err := e.call(http.MethodGet, "/api/v1/runs", tenant, nil)
		var runs []store.RunMeta
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(data, &runs)
		}
		if err != nil || status != http.StatusOK {
			e.problem("runs %s: status %d: %v", tenant, status, err)
			continue
		}
		var got []string
		for _, r := range runs {
			got = append(got, r.ID)
		}
		sort.Strings(got)
		sort.Strings(want[tenant])
		if strings.Join(got, ",") != strings.Join(want[tenant], ",") {
			e.problem("runs %s: %d listed, %d acknowledged, and the ids differ", tenant, len(got), len(want[tenant]))
		}
		if g != nil && g[runGauge(tenant)] != int64(len(want[tenant])) {
			e.problem("metrics %s: run gauge %d, distinct acknowledged logs %d", tenant, g[runGauge(tenant)], len(want[tenant]))
		}
	}
	e.mu.Lock()
	snap := e.snapshotLocked()
	e.mu.Unlock()
	status, data, _, err := e.call(http.MethodGet, "/api/v1/sites", tenantA, nil)
	if err != nil || status != http.StatusOK {
		e.problem("final sites: status %d: %v", status, err)
		return
	}
	e.checkSites(snap, data)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

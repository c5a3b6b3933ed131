package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xhybrid"
	"xhybrid/internal/jobs"
	"xhybrid/internal/obs"
	"xhybrid/internal/server"
	"xhybrid/internal/workload"
)

// serve-mix traffic. Every epoch starts a fresh in-process server (empty
// memory and disk cache, empty jobs spool) and two closed-loop clients
// walk the pool: each client owns every other map and, per map, sends
// serveSync synchronous requests (the first misses, the rest hit) and one
// async job, waited on until it is done. That fixes the mix at 60% hits,
// 20% misses and 20% jobs in every epoch.
//
// The mix is an assumption, not measured traffic: nothing records
// xhybridd's real hit or job share. It sits between the cold and warm
// extremes EXPERIMENTS.md records (every request a miss, every request a
// hit) so that each share exercises its own layers in one run: hits the wire
// path (gzip inflate, XMAPB decode, digest, cache lookup, plan encode),
// misses the partitioning engine plus the disk-store write, and jobs the
// spool, checkpoint and job-manager path.
const (
	servePool     = 16 // distinct CKT-B/4 maps
	serveScale    = 4
	serveClients  = 2 // closed-loop clients (= nproc)
	serveSync     = 4
	servePoll     = 2 * time.Millisecond
	serveStrategy = "greedy-cost"
	// serveQuery is every request's plan options. One worker per request
	// keeps the load at two compute threads, one per client.
	serveQuery = "strategy=" + serveStrategy + "&workers=1"
)

// serveMix runs xhybridd's handler in-process on loopback. One op is one
// HTTP exchange a caller waits for: a synchronous plan, or an async job
// from submission to its fetched result.
type serveMix struct {
	maps   []*xhybrid.XLocations
	bodies [][]byte // gzip-compressed XMAPB encodings of maps
	// lib holds the library's own plan of each map (computed once, in
	// verify) and libFP its fingerprint.
	lib   []*xhybrid.Plan
	libFP []string
	// baselinesMs is the mean self time of those library calls around the
	// partitioner (EvaluateCtx minus RunCtx).
	baselinesMs float64
	// served counts, per map, the fingerprints of every plan served in the
	// last window; digests collects the plan digests the server reported.
	served  []map[string]int
	digests []map[string]bool
}

// setup generates the pool: CKT-B/4 maps with distinct profile seeds
// derived from the workload seed, each gzip-encoded as the XMAPB wire body.
func (b *serveMix) setup(ctx context.Context, seed int64, tr *tracer) error {
	b.maps, b.bodies, b.lib, b.libFP, b.baselinesMs = nil, nil, nil, nil, 0
	for j := 0; j < servePool; j++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := tr.begin(setupOp, "workload.generate", 0)
		p := workload.Scaled(workload.CKTB(), serveScale)
		p.Seed += (seed-1)*servePool + int64(j)
		m, err := p.Generate()
		if err != nil {
			return err
		}
		g := p.Geometry()
		x, err := xhybrid.NewXLocations(g.Chains, g.ChainLen, m.Patterns())
		if err != nil {
			return err
		}
		for _, c := range m.XCells() {
			chain, pos := g.CellCoord(c.Cell)
			for _, pat := range c.Patterns.Indices() {
				if err := x.AddX(pat, chain, pos); err != nil {
					return err
				}
			}
		}
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if err := x.WriteBinary(zw); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		tr.end(id)
		b.maps = append(b.maps, x)
		b.bodies = append(b.bodies, buf.Bytes())
	}
	return nil
}

// sample is one op as a client saw it.
type sample struct {
	j       int
	kind    string // "hit", "miss" or "job"
	lat     time.Duration
	jobDone time.Duration // jobs: submission to done
	ok      bool
	digest  string
	fp      string
	bits    int
	tt      float64
}

func (b *serveMix) measure(ctx context.Context, budget time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	rec := obs.New()
	var alloc0 uint64
	if tr != nil {
		alloc0 = totalAlloc()
	}
	dir := filepath.Join(outDir, fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	b.served = make([]map[string]int, servePool)
	b.digests = make([]map[string]bool, servePool)
	for j := range b.served {
		b.served[j], b.digests[j] = make(map[string]int), make(map[string]bool)
	}
	var all []sample
	epochs := 0
	err := measureLoop(ctx, budget, w, func() (time.Duration, error) {
		samples, d, err := b.epoch(ctx, filepath.Join(dir, fmt.Sprint(epochs)), rec, tr)
		if err != nil {
			return 0, err
		}
		epochs++
		all = append(all, samples...)
		return d, b.tally(w, samples, epochs == 1)
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		w.layers = b.layers(rec.Snapshot(), all, w.ops)
		w.layers["go.alloc_mb_per_op"] = allocMBPerOp(alloc0, w.ops)
	}
	return w, nil
}

// tally folds one epoch's samples into the window: latencies, checks and
// the modelled metrics of the plans the epoch served.
func (b *serveMix) tally(w *window, samples []sample, first bool) error {
	bits := make([]int, servePool)
	tts := make([]float64, servePool)
	for _, s := range samples {
		w.addOp(s.lat)
		w.attempted++
		if !s.ok {
			w.failed++
			continue
		}
		b.served[s.j][s.fp]++
		if s.digest != "" {
			b.digests[s.j][s.digest] = true
		}
		bits[s.j], tts[s.j] = s.bits, s.tt
	}
	var sumBits int64
	var sumTT float64
	for j := range bits {
		sumBits += int64(bits[j])
		sumTT += tts[j]
	}
	return w.setModelled(first, sumBits, sumTT/servePool)
}

// epoch serves the pool once from a fresh server under dir and returns
// every client's samples and the epoch's wall time.
func (b *serveMix) epoch(ctx context.Context, dir string, rec *obs.Recorder, tr *tracer) ([]sample, time.Duration, error) {
	mgr, err := jobs.Open(filepath.Join(dir, "spool"), jobs.Config{Obs: rec})
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	defer mgr.Stop()
	srv, err := server.New(server.Config{CacheDir: filepath.Join(dir, "cache"), Jobs: mgr, Obs: rec})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	sctx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sctx, ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	c := &client{http: &http.Client{Transport: transport}, base: "http://" + ln.Addr().String(), tr: tr}

	t0 := time.Now()
	results := make([][]sample, serveClients)
	var wg sync.WaitGroup
	for k := 0; k < serveClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k] = b.walk(ctx, c, k)
		}(k)
	}
	wg.Wait()
	d := time.Since(t0)

	transport.CloseIdleConnections()
	stop()
	if err := <-served; err != nil {
		return nil, 0, fmt.Errorf("server: %w", err)
	}
	var out []sample
	for _, r := range results {
		out = append(out, r...)
	}
	return out, d, nil
}

// walk is client k's closed loop over its share of the pool.
func (b *serveMix) walk(ctx context.Context, c *client, k int) []sample {
	var out []sample
	for j := k; j < servePool; j += serveClients {
		for i := 0; i < serveSync; i++ {
			out = append(out, c.partition(ctx, j, b.bodies[j]))
		}
		out = append(out, c.job(ctx, j, b.bodies[j]))
	}
	return out
}

// client sends the serve-mix requests and times them.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func (c *client) post(ctx context.Context, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("Content-Encoding", "gzip")
	return req, nil
}

// do sends req and reads the whole body; a status other than want is an
// error.
func (c *client) do(req *http.Request, want int) (*http.Response, []byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp, data, nil
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	_, data, err := c.do(req, http.StatusOK)
	return data, err
}

// partition sends one synchronous plan request for map j.
func (c *client) partition(ctx context.Context, j int, body []byte) sample {
	s := sample{j: j}
	op := c.tr.opID("sync")
	t0 := time.Now()
	req, err := c.post(ctx, "/v1/partition?"+serveQuery, body)
	var resp *http.Response
	var data []byte
	if err == nil {
		resp, data, err = c.do(req, http.StatusOK)
	}
	s.lat = time.Since(t0)
	if c.tr != nil {
		root := c.tr.add(op, opSpan, 0, t0, t0.Add(s.lat), false)
		c.tr.add(op, "http.partition", root, t0, t0.Add(s.lat), false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench: serve-mix:", err)
		return s
	}
	s.kind = resp.Header.Get("X-Cache")
	var env struct {
		Digest string          `json:"digest"`
		Plan   json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		fmt.Fprintln(os.Stderr, "xbench: serve-mix: partition response:", err)
		return s
	}
	s.digest = env.Digest
	return s.served(env.Plan)
}

// job submits map j as an async job, polls it until it is done and
// fetches its plan.
func (c *client) job(ctx context.Context, j int, body []byte) sample {
	s := sample{j: j, kind: "job"}
	op := c.tr.opID("job")
	t0 := time.Now()
	root := c.tr.begin(op, opSpan, 0)
	plan, err := c.runJob(ctx, op, root, body, t0, &s)
	s.lat = time.Since(t0)
	c.tr.end(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbench: serve-mix:", err)
		return s
	}
	return s.served(plan)
}

func (c *client) runJob(ctx context.Context, op string, root int, body []byte, t0 time.Time, s *sample) ([]byte, error) {
	id := c.tr.begin(op, "http.submit", root)
	req, err := c.post(ctx, "/v1/jobs?checkpoint=1&"+serveQuery, body)
	var data []byte
	if err == nil {
		_, data, err = c.do(req, http.StatusAccepted)
	}
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("job submit response: %w", err)
	}
	id = c.tr.begin(op, "jobs.wait", root)
	for st.State != string(jobs.StateDone) {
		if st.State == string(jobs.StateFailed) {
			c.tr.end(id)
			return nil, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
		}
		time.Sleep(servePoll)
		data, err := c.get(ctx, "/v1/jobs/"+st.ID)
		if err == nil {
			err = json.Unmarshal(data, &st)
		}
		if err != nil {
			c.tr.end(id)
			return nil, err
		}
	}
	c.tr.end(id)
	s.jobDone = time.Since(t0)
	id = c.tr.begin(op, "http.result", root)
	defer c.tr.end(id)
	return c.get(ctx, "/v1/jobs/"+st.ID+"/result")
}

// served records a plan the server returned: its fingerprint and modelled
// metrics.
func (s sample) served(raw []byte) sample {
	var compact bytes.Buffer
	var p struct {
		TotalBits      int     `json:"TotalBits"`
		TestTimeHybrid float64 `json:"TestTimeHybrid"`
	}
	if err := json.Compact(&compact, raw); err != nil || json.Unmarshal(raw, &p) != nil {
		fmt.Fprintln(os.Stderr, "xbench: serve-mix: unreadable plan")
		return s
	}
	s.fp = fingerprint(compact.Bytes())
	s.bits, s.tt = p.TotalBits, p.TestTimeHybrid
	s.ok = true
	return s
}

func fingerprint(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// verify plans every pool map through the library, checks those plans
// from the outside, and checks that every plan the server served for a
// map — computed, cached or from a job — equals the library's, and that
// each map had exactly one digest and no two maps shared one.
func (b *serveMix) verify(ctx context.Context, w *window) (int, error) {
	failed := 0
	if b.lib == nil {
		rec := obs.New()
		for j, x := range b.maps {
			t0 := time.Now()
			p, err := xhybrid.PartitionCtx(ctx, x, xhybrid.Options{Strategy: serveStrategy, Stats: rec})
			b.baselinesMs += ms(time.Since(t0)) / servePool
			if err != nil {
				return 0, fmt.Errorf("library plan %d: %w", j, err)
			}
			raw, err := json.Marshal(p)
			if err != nil {
				return 0, err
			}
			if err := checkPlan(x, p); err != nil {
				fmt.Fprintf(os.Stderr, "xbench: serve-mix map %d: %v\n", j, err)
				failed++
			}
			b.lib = append(b.lib, p)
			b.libFP = append(b.libFP, fingerprint(raw))
		}
		b.baselinesMs -= ms(spanTotal(rec, "core.run")) / servePool
	}
	owner := make(map[string]int)
	for j := range b.served {
		for fp, n := range b.served[j] {
			if fp != b.libFP[j] {
				fmt.Fprintf(os.Stderr, "xbench: serve-mix map %d: %d served plans differ from the library plan\n", j, n)
				failed += n
			}
		}
		if len(b.digests[j]) != 1 {
			fmt.Fprintf(os.Stderr, "xbench: serve-mix map %d: %d digests\n", j, len(b.digests[j]))
			failed++
		}
		for d := range b.digests[j] {
			if k, dup := owner[d]; dup {
				fmt.Fprintf(os.Stderr, "xbench: serve-mix maps %d and %d share digest %s\n", k, j, d)
				failed++
			}
			owner[d] = j
		}
	}
	return failed, nil
}

// layers derives serve-mix's per-layer metrics from the clients' samples,
// the server's recorder, and the facade I/O timed on the pool bodies.
func (b *serveMix) layers(snap obs.Snapshot, all []sample, ops int) map[string]float64 {
	out := coreLayers(snap, ops)
	var hit, miss, job, jobDone []float64
	for _, s := range all {
		switch s.kind {
		case "hit":
			hit = append(hit, ms(s.lat))
		case "miss":
			miss = append(miss, ms(s.lat))
		case "job":
			job = append(job, ms(s.lat))
			jobDone = append(jobDone, ms(s.jobDone))
		}
	}
	c := func(name string) float64 { return float64(snap.CounterValue(name)) }
	part, _ := snap.SpanByName("server.partition")
	decode, digest, encode := b.facadeIO()
	out["server.hit_ms"] = mean(hit)
	out["server.miss_ms"] = mean(miss)
	out["server.cache_hit_ratio"] = ratio(c("server.cache.hits"), c("server.cache.hits")+c("server.cache.misses"))
	out["server.cache_disk_writes"] = ratio(c("server.cache.disk.writes"), float64(len(miss)))
	out["server.partition_ms"] = ratio(ms(part.Total), float64(part.Count))
	out["server.wait_ms"] = mean(miss) - decode - digest - out["server.partition_ms"] - encode
	out["jobs.job_ms"] = mean(jobDone)
	out["jobs.checkpoints_written"] = ratio(c("jobs.checkpoints.written"), float64(len(job)))
	out["jobs.spool_retries"] = c("jobs.spool.retries")
	out["io.decode_ms"], out["io.digest_ms"], out["io.encode_ms"] = decode, digest, encode
	out["core.baselines_ms"] = b.baselinesMs
	return out
}

// facadeIO times, per pool body, the public functions the server runs
// around the compute: gzip inflate plus ReadXLocationsBinary (decode),
// WriteBinary into sha256 (digest) and the indented plan JSON encode. Each
// is the mean over three passes of the pool.
func (b *serveMix) facadeIO() (decode, digest, encode float64) {
	const passes = 3
	n := float64(passes * len(b.bodies))
	for pass := 0; pass < passes; pass++ {
		for j, body := range b.bodies {
			t0 := time.Now()
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err == nil {
				_, err = xhybrid.ReadXLocationsBinary(zr)
			}
			decode += ms(time.Since(t0)) / n
			if err != nil {
				fmt.Fprintln(os.Stderr, "xbench: serve-mix: decode:", err)
			}
			t0 = time.Now()
			h := sha256.New()
			_ = b.maps[j].WriteBinary(h) // hash.Hash writes never fail
			h.Sum(nil)
			digest += ms(time.Since(t0)) / n
			if j < len(b.lib) {
				t0 = time.Now()
				enc := json.NewEncoder(io.Discard)
				enc.SetIndent("", "  ")
				_ = enc.Encode(b.lib[j]) // io.Discard never fails
				encode += ms(time.Since(t0)) / n
			}
		}
	}
	return decode, digest, encode
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

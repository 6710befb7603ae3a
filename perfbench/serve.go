package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/server"
	"repro/internal/testspec"
)

// serveCells are the operating points warm and job requests ask live
// systems for; set-up pre-warms every one of them.
var serveCells = []cell{{155, 50}, {165, 60}, {175, 70}, {185, 80}}

// coldCell is the operating point of every first request for a new SoC.
var coldCell = cell{165, 60}

// maxLateFrac bounds the load generator's median lateness as a share of
// op_p50_ms; a run whose generator ran later is invalid.
const maxLateFrac = 0.1

// requestTimeout fails a request the service has not answered in time, so a
// hung request cannot hold the run past its deadline.
const requestTimeout = 30 * time.Second

// socInput is one SoC as the service receives it: inline .flp and test-spec
// texts, plus the spec parsed from exactly those texts for the library
// reference.
type socInput struct {
	name      string
	floorplan string
	testSpec  string
	spec      *testspec.Spec
}

type request struct {
	kind reqKind
	due  time.Duration // from window start
	body []byte
	want [32]byte
}

// serveMixed drives an in-process thermserve over loopback HTTP with a
// seeded open-loop mix of warm reads, cold writes and async jobs.
type serveMixed struct {
	wc   workloadConfig
	o    options
	live []socInput
	reqs []request
	// prewarm are the set-up requests: every live system at every cell.
	prewarm []request

	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	conns  int
}

func newServeMixed(wc workloadConfig, o options) *serveMixed {
	return &serveMixed{wc: wc, o: o, conns: runtime.NumCPU()}
}

// inputs draws the live systems, the cold SoCs and the request sequence
// from the seed, and computes each request's reference schedule with the
// library.
func (s *serveMixed) inputs() error {
	rng := rand.New(rand.NewSource(s.o.seed))
	n := int(s.wc.RateRPS * s.o.window.Seconds())
	due := arrivals(rng, n, s.o.window)
	ks := kinds(rng, n, s.wc.ColdShare, s.wc.JobShare)
	ncold := 0
	for _, k := range ks {
		if k == coldReq {
			ncold++
		}
	}
	pool, err := socPool(rng.Int63(), s.wc.PoolCores, s.wc.LiveSystems+ncold)
	if err != nil {
		return err
	}
	socs := make([]socInput, len(pool))
	for i, spec := range pool {
		name := fmt.Sprintf("live-%d", i)
		if i >= s.wc.LiveSystems {
			name = fmt.Sprintf("cold-%d", i-s.wc.LiveSystems)
		}
		if socs[i], err = inlineSoC(name, spec); err != nil {
			return err
		}
	}
	s.live = socs[:s.wc.LiveSystems]
	refs := make(map[string][32]byte)
	mk := func(kind reqKind, soc socInput, c cell) (request, error) {
		key := fmt.Sprintf("%s/%g/%g", soc.name, c.tl, c.stcl)
		want, ok := refs[key]
		if !ok {
			if want, err = libraryDigest(soc.spec, c); err != nil {
				return request{}, fmt.Errorf("reference %s: %w", key, err)
			}
			refs[key] = want
		}
		body, err := json.Marshal(map[string]any{"name": soc.name, "floorplan": soc.floorplan,
			"test_spec": soc.testSpec, "tl_celsius": c.tl, "stcl": c.stcl})
		return request{kind: kind, body: body, want: want}, err
	}
	s.prewarm = nil
	for _, soc := range s.live {
		for _, c := range serveCells {
			r, err := mk(warmReq, soc, c)
			if err != nil {
				return err
			}
			s.prewarm = append(s.prewarm, r)
		}
	}
	s.reqs = make([]request, n)
	nextCold := s.wc.LiveSystems
	for i, k := range ks {
		soc, c := s.live[rng.Intn(len(s.live))], serveCells[rng.Intn(len(serveCells))]
		if k == coldReq {
			soc, c = socs[nextCold], coldCell
			nextCold++
		}
		if s.reqs[i], err = mk(k, soc, c); err != nil {
			return err
		}
		s.reqs[i].due = due[i]
	}
	return nil
}

// inlineSoC renders spec into the service's inline request texts and parses
// them back the way the service does.
func inlineSoC(name string, spec *testspec.Spec) (socInput, error) {
	flp := floorplan.Format(spec.Floorplan())
	ts := testspec.Format(spec)
	fp, err := floorplan.Parse(strings.NewReader(flp), "request.flp")
	if err != nil {
		return socInput{}, err
	}
	parsed, err := testspec.Parse(strings.NewReader(ts), name, fp)
	if err != nil {
		return socInput{}, err
	}
	return socInput{name: name, floorplan: flp, testSpec: ts, spec: parsed}, nil
}

// libraryDigest is the reference: the same problem solved in-process by the
// library, in a fresh system of its own.
func libraryDigest(spec *testspec.Spec, c cell) ([32]byte, error) {
	env, err := experiments.NewEnv(spec)
	if err != nil {
		return [32]byte{}, err
	}
	res, err := generate(nil, env, c, false)
	if err != nil {
		return [32]byte{}, err
	}
	return resultDigest(res, spec), nil
}

// start brings up a fresh server on a fresh store directory and pre-warms
// every live system at every cell: the timed set-up.
func (s *serveMixed) start() error {
	s.stop()
	dir, err := os.MkdirTemp(s.o.workdir, "serve-")
	if err != nil {
		return err
	}
	// No MaxSystems or StoreBudget: /metrics sums tier counters over live
	// systems only, so a dropped system would make the totals this
	// benchmark differences go backwards.
	srv, err := server.New(server.Config{CacheDir: dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	s.srv, s.base = srv, "http://"+ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	go s.hs.Serve(ln)
	s.client = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost: s.conns, MaxIdleConnsPerHost: s.conns, DisableCompression: true}}
	for _, r := range s.prewarm {
		if _, err := s.do(-1, r, nil); err != nil {
			return fmt.Errorf("pre-warming: %w", err)
		}
	}
	return nil
}

// stop shuts the current server down, waiting for its handlers.
func (s *serveMixed) stop() error {
	if s.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a straggling handler only delays exit
	err := s.srv.Close()
	s.client.CloseIdleConnections()
	s.hs, s.srv = nil, nil
	return err
}

// reply is what one request measured.
type reply struct {
	status   int
	timing   server.TimingInfo
	roundMS  float64   // client round trip of the schedule request
	submitMS float64   // jobs: POST /v1/jobs round trip
	done     time.Time // response read, or a job's final event read

	attempts, violations int
}

// do sends one request and checks its schedule against the reference. For a
// job it submits, follows the event stream to the final event, then fetches
// the result.
func (s *serveMixed) do(op int, r request, tr *tracer) (reply, error) {
	var rep reply
	var resp server.ScheduleResponse
	if r.kind != jobReq {
		id := tr.beginOp("server.schedule", op)
		t0 := time.Now()
		status, body, err := s.post("/v1/schedule", r.body)
		rep.done = time.Now()
		rep.roundMS = float64(rep.done.Sub(t0)) / 1e6
		tr.end(id)
		rep.status = status
		if err != nil {
			return rep, err
		}
		if status != http.StatusOK {
			return rep, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return rep, err
		}
	} else {
		id := tr.beginOp("jobs.submit", op)
		t0 := time.Now()
		status, body, err := s.post("/v1/jobs", r.body)
		rep.submitMS = float64(time.Since(t0)) / 1e6
		tr.end(id)
		rep.status = status
		if err != nil {
			return rep, err
		}
		if status != http.StatusAccepted {
			return rep, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		var sub server.JobSubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			return rep, err
		}
		id = tr.beginOp("jobs.events", op)
		err = s.followJob(sub.ID)
		rep.done = time.Now()
		tr.end(id)
		if err != nil {
			return rep, err
		}
		st, err := s.jobStatus(sub.ID)
		if err != nil {
			return rep, err
		}
		if st.State != "done" {
			return rep, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
		}
		if err := json.Unmarshal(st.Response, &resp); err != nil {
			return rep, err
		}
		rep.status = http.StatusOK
	}
	rep.timing = resp.Timing
	res := resp.Result
	rep.attempts, rep.violations = res.Attempts, res.Violations
	if !(res.MaxTemp < res.EffectiveTL) {
		return rep, fmt.Errorf("%s: max temp %.3f °C is not below TL %.3f °C", res.Workload, res.MaxTemp, res.EffectiveTL)
	}
	got := digest(res.Schedule, res.Length, res.Effort, res.MaxTemp, res.Attempts, res.Violations)
	if got != r.want {
		return rep, fmt.Errorf("%s TL %g STCL %g: schedule differs from the library's", res.Workload, res.TL, res.STCL)
	}
	return rep, nil
}

func (s *serveMixed) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// followJob reads the job's server-sent events until the stream's final
// state event.
func (s *serveMixed) followJob(id string) error {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d on job events", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			State string `json:"state"`
		}
		if json.Unmarshal([]byte(data), &ev) == nil && ev.State != "" &&
			ev.State != "accepted" && ev.State != "queued" && ev.State != "running" {
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended before a final state", id)
}

func (s *serveMixed) jobStatus(id string) (server.JobStatusResponse, error) {
	var st server.JobStatusResponse
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d on job status", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// tierTotals reads the counters /metrics exports for the whole service.
func (s *serveMixed) tierTotals() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]string{
		`thermserve_tier_hits_total{tier="1"}`:   "tier1.hits",
		`thermserve_tier_misses_total{tier="1"}`: "tier1.misses",
		`thermserve_tier_hits_total{tier="2"}`:   "tier2.hits",
		`thermserve_tier_misses_total{tier="2"}`: "tier2.misses",
		`thermserve_store_bytes`:                 "store.bytes",
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if key, hit := want[name]; ok && hit {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics %s: %w", name, err)
			}
			out[key] = v
		}
	}
	if len(out) != len(want) {
		return nil, fmt.Errorf("/metrics lacks some of %v", want)
	}
	return out, sc.Err()
}

// openWindow is what one open-loop window measured, per request.
type openWindow struct {
	lat, late []float64 // ms from due to the reply being read, and from due to send
	replies   []reply
	failed    int
	before    map[string]float64
	after     map[string]float64
	mallocs   uint64
	gcPauseNs uint64
}

// window plays the request sequence against the running server with
// s.conns senders, each holding one connection: a free sender claims the
// earliest unclaimed request and sends it at its due time, or at once when
// that has passed, so a request waits only when every connection is busy.
// Senders time their own sends, so no hand-off between goroutines adds to
// the generator's lateness.
func (s *serveMixed) window(tr *tracer, log io.Writer) (openWindow, error) {
	var w openWindow
	n := len(s.reqs)
	w.lat, w.late, w.replies = make([]float64, n), make([]float64, n), make([]reply, n)
	errs := make([]error, n)
	var err error
	if w.before, err = s.tierTotals(); err != nil {
		return w, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(s.conns)
	for c := 0; c < s.conns; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(s.reqs[i].due)
				waitUntil(due)
				w.late[i] = float64(time.Since(due)) / 1e6
				rep, err := s.do(i, s.reqs[i], tr)
				if rep.done.IsZero() { // failed before a reply was read
					rep.done = time.Now()
				}
				w.lat[i] = float64(rep.done.Sub(due)) / 1e6
				w.replies[i], errs[i] = rep, err
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	w.mallocs, w.gcPauseNs = ms1.Mallocs-ms0.Mallocs, ms1.PauseTotalNs-ms0.PauseTotalNs
	if w.after, err = s.tierTotals(); err != nil {
		return w, err
	}
	for i, err := range errs {
		if err != nil {
			if w.failed < 5 {
				fmt.Fprintf(log, "perfbench: request %d (%s): %v\n", i, s.reqs[i].kind, err)
			}
			w.failed++
		}
	}
	return w, nil
}

func runOpen(s *serveMixed, wc workloadConfig, o options, log io.Writer) (map[string]float64, int, int, error) {
	defer s.stop()
	if err := s.inputs(); err != nil {
		return nil, 0, 0, err
	}
	values := make(map[string]float64)
	if !o.trace {
		setupS, err := timedSetup(s.start, s.stop, wc.SetupRepeats)
		if err != nil {
			return nil, 0, 0, err
		}
		runtime.GC()
		w, err := s.window(nil, log)
		if err != nil {
			return nil, 0, 0, err
		}
		p50, tailMS, err := s.validLatency(w, wc, log)
		if err != nil {
			return nil, 0, 0, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, 0, 0, err
		}
		values["setup_s"] = setupS
		values["op_p50_ms"] = p50
		values["op_tail_ms"] = tailMS
		values["peak_rss_mb"] = rss
		return values, len(w.lat), w.failed, nil
	}

	if err := s.start(); err != nil {
		return nil, 0, 0, err
	}
	runtime.GC()
	un, err := s.window(nil, log)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := s.stop(); err != nil {
		return nil, 0, 0, err
	}
	if err := s.start(); err != nil {
		return nil, 0, 0, err
	}
	runtime.GC()
	tr := newTracer()
	tw, err := s.window(tr, log)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, w := range []openWindow{un, tw} {
		if _, _, err := s.validLatency(w, wc, log); err != nil {
			return nil, 0, 0, err
		}
	}
	if err := tr.write(spanPath(o)); err != nil {
		return nil, 0, 0, fmt.Errorf("writing spans: %w", err)
	}
	s.layerValues(values, un, tw)
	return values, len(un.lat) + len(tw.lat), un.failed + tw.failed, nil
}

// validLatency returns the window's median and tail latency, refusing the
// run when the load generator itself ran late against them.
func (s *serveMixed) validLatency(w openWindow, wc workloadConfig, log io.Writer) (p50, tailMS float64, err error) {
	lat := append([]float64(nil), w.lat...)
	late := append([]float64(nil), w.late...)
	sort.Float64s(lat)
	sort.Float64s(late)
	p50 = median(lat)
	if tailMS, err = tail(lat, wc.TailPercentile); err != nil {
		return 0, 0, fmt.Errorf("op_tail_ms: %w", err)
	}
	late50, late99 := median(late), pct(late, 99)
	byKind := make(map[reqKind][]float64)
	for i, r := range s.reqs {
		byKind[r.kind] = append(byKind[r.kind], w.lat[i])
	}
	for k := warmReq; k <= jobReq; k++ {
		l := byKind[k]
		sort.Float64s(l)
		fmt.Fprintf(log, "perfbench: %s: %d requests, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n", k, len(l), median(l), pct(l, 90), pct(l, 99))
	}
	fmt.Fprintf(log, "perfbench: %d requests, p50 %.3f ms, p90 %.3f ms, p95 %.3f ms, p99 %.3f ms, generator late p50 %.3f ms p99 %.3f ms, %d connections\n",
		len(lat), p50, pct(lat, 90), pct(lat, 95), pct(lat, 99), late50, late99, s.conns)
	if late50 > maxLateFrac*p50 {
		return 0, 0, fmt.Errorf("invalid run: load generator median lateness %.3f ms exceeds %g of op p50 %.3f ms",
			late50, maxLateFrac, p50)
	}
	return p50, tailMS, nil
}

// layerValues fills the per-layer metrics of a traced serve-mixed run. The
// service's inner layers are read from its response timing and /metrics
// counters; layers only the library workloads time directly read 0.
func (s *serveMixed) layerValues(v map[string]float64, un, tw openWindow) {
	for _, m := range perLayer {
		v[m.name] = 0
	}
	unP50, twP50 := median(un.lat), median(tw.lat)
	v["trace.untraced_p50_ms"] = unP50
	v["trace.traced_p50_ms"] = twP50
	v["trace.overhead_pct"] = 100 * (twP50/unP50 - 1)

	var gen, self, wire []float64
	var queue, submit, done, late []float64
	var attempts, violations, shed, errs, cold float64
	for i, r := range tw.replies {
		late = append(late, tw.late[i])
		switch {
		case r.status == http.StatusTooManyRequests:
			shed++
		case r.status >= 500:
			errs++
		}
		if r.status != http.StatusOK {
			continue
		}
		gen = append(gen, r.timing.GenerateMS)
		attempts += float64(r.attempts)
		violations += float64(r.violations)
		queue = append(queue, r.timing.QueueMS)
		if s.reqs[i].kind == jobReq {
			submit = append(submit, r.submitMS)
			done = append(done, tw.lat[i]-tw.late[i])
		} else {
			self = append(self, r.timing.TotalMS-r.timing.QueueMS-r.timing.GenerateMS)
			wire = append(wire, r.roundMS-r.timing.TotalMS)
		}
		if s.reqs[i].kind == coldReq {
			cold++
		}
	}
	sch := float64(len(gen))
	d := func(k string) float64 { return tw.after[k] - tw.before[k] }
	sort.Float64s(queue)
	sort.Float64s(late)
	mean := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return ratio(t, float64(len(xs)))
	}
	v["core.generate_ms"] = mean(gen)
	v["core.sims_per_schedule"] = ratio(d("tier2.misses"), sch)
	v["core.oracle_queries"] = ratio(d("tier1.hits")+d("tier1.misses"), sch)
	v["core.attempts"] = ratio(attempts, sch)
	v["core.violations"] = ratio(violations, sch)
	v["core.tier1_hit_ratio"] = ratio(d("tier1.hits"), d("tier1.hits")+d("tier1.misses"))
	v["oraclestore.tier2_hit_ratio"] = ratio(d("tier2.hits"), d("tier2.hits")+d("tier2.misses"))
	v["oraclestore.appended_kb"] = ratio(d("store.bytes")/1024, cold)
	v["server.self_ms"] = mean(self)
	v["server.wire_ms"] = mean(wire)
	v["conc.queue_p50_ms"] = median(queue)
	v["conc.queue_p99_ms"] = pct(queue, 99)
	v["jobs.submit_ms"] = median(submit)
	v["jobs.done_ms"] = median(done)
	v["server.shed"] = shed
	v["server.errors"] = errs
	v["runtime.allocs_per_op"] = ratio(float64(un.mallocs), float64(len(un.lat)))
	v["runtime.gc_pause_ms"] = ratio(float64(un.gcPauseNs)/1e6, float64(len(un.lat)))
	v["loadgen.late_p50_ms"] = median(late)
	v["loadgen.late_p99_ms"] = pct(late, 99)
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The serve-mix load shape. These constants are the benchmark's fixed
// rate staircase and latency limit; BENCHMARK.json's serve-mix entry
// repeats them.
const (
	nominalRate     = 50.0  // requests/s of the latency measurement
	nominalSegments = 5     // the nominal phase's stretches between reference kernels
	latencyLimitMS  = 250.0 // p95 a staircase step must meet
	nominalShare    = 0.65  // of the window; the staircase gets the rest
	serveProbes     = 11    // servd start-ups measured for setup_s
)

// staircase is the fixed sequence of offered rates (requests/s); it
// stops at the first step that misses the latency limit, fails a
// request, or builds a backlog.
var staircase = []float64{50, 100, 200, 400, 800, 1600}

// serveCircuits are the small-to-mid circuits requests name.
var serveCircuits = []string{"c17", "cm138a", "cu", "rca8", "alu2"}

// mixBlock is the stratified request mix: every block of 20 requests
// holds exactly these slots in a seeded order, so the share of each kind
// and of repeats is fixed and only order, circuits and seeds vary.
var mixBlock = []string{
	"repeat", "repeat", "repeat", "repeat", "repeat", "repeat",
	"analyze", "analyze", "analyze", "analyze",
	"optimize", "optimize", "optimize", "optimize",
	"simulate-zero", "simulate-zero", "simulate-zero",
	"simulate-unit", "simulate-unit", "simulate-unit",
}

// request is one generated servd call.
type request struct {
	endpoint string
	body     []byte
}

// mix draws the request sequence from the seed.
type mix struct {
	rng      *rand.Rand
	block    []string
	issued   []*request
	count    map[string]int
	offset   map[string]int
	nextSeed int64
}

func newMix(seed int64) *mix {
	m := &mix{rng: rand.New(rand.NewSource(seed)), count: map[string]int{}, offset: map[string]int{}, nextSeed: seed << 20}
	for _, k := range mixBlock {
		m.offset[k] = m.rng.Intn(2 * len(serveCircuits))
	}
	return m
}

func (m *mix) next() *request {
	if len(m.block) == 0 {
		m.block = slices.Clone(mixBlock)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	kind := m.block[0]
	m.block = m.block[1:]
	if kind == "repeat" {
		if len(m.issued) > 0 {
			return m.issued[m.rng.Intn(len(m.issued))]
		}
		kind = mixBlock[6+m.rng.Intn(len(mixBlock)-6)] // a fresh kind: the slots after the six repeats
	}
	// Circuit and scenario cycle per kind, so every kind covers the ten
	// (circuit, scenario) pairs evenly.
	n := m.count[kind] + m.offset[kind]
	m.count[kind]++
	scenario := "A"
	if n%2 == 1 {
		scenario = "B"
	}
	r := m.fresh(kind, serveCircuits[n%len(serveCircuits)], scenario, m.nextSeed)
	m.nextSeed++
	m.issued = append(m.issued, r)
	return r
}

// fresh builds a request body.
func (m *mix) fresh(kind, bench, scenario string, seed int64) *request {
	body := map[string]any{"benchmark": bench, "scenario": scenario, "seed": seed}
	endpoint := kind
	switch kind {
	case "simulate-zero":
		endpoint, body["delay"] = "simulate", "zero"
	case "simulate-unit":
		endpoint, body["delay"] = "simulate", "unit"
	}
	if endpoint == "simulate" && scenario == "B" {
		// Scenario B toggles inputs ten times as often as A; a tenth of
		// the default horizon keeps both scenarios' requests comparable.
		body["horizon"] = 5e-6
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return &request{endpoint: endpoint, body: b}
}

// shot is one sent request.
type shot struct {
	req    *request
	due    time.Time
	sent   time.Time
	done   time.Time
	status int
	body   []byte
	err    error
}

// servd is a running server process.
type servd struct {
	cmd  *exec.Cmd
	base string
}

// startServd starts servd on a free loopback port and waits until
// /healthz answers; it returns the set-up time.
func (b *bench) startServd() (*servd, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(filepath.Join(b.binDir, "servd"), "-addr", addr, "-workers", strconv.Itoa(b.nproc), "-grace", "5s")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(b.nproc))
	cmd.Stderr = io.Discard
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &servd{cmd: cmd, base: "http://" + addr}
	for time.Since(start) < 20*time.Second {
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start).Seconds(), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("servd did not become healthy on %s", addr)
}

// stop shuts servd down gracefully (killing it if it hangs) and waits
// for it.
func (s *servd) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) // fails only if servd already exited; Wait below reaps it
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// scrape reads servd's /metrics into series → value.
func (s *servd) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// loadgen is the single-process open-loop generator.
type loadgen struct {
	b      *bench
	srv    *servd
	client *http.Client
	mix    *mix
	rng    *rand.Rand
	shots  []*shot // every request sent, in send order

	firstBody map[string][]byte // request body → first successful answer
	repeats   int               // answers compared against an earlier one
	corrupted bool              // the corrupt-response hook has fired
}

// send performs one request.
func (g *loadgen) send(s *shot) {
	s.sent = time.Now()
	resp, err := g.client.Post(g.srv.base+"/v1/"+s.req.endpoint, "application/json", bytes.NewReader(s.req.body))
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.err = err
	s.done = time.Now()
}

// phase is one open-loop stretch at a fixed rate.
type phase struct {
	rate     float64
	start    time.Time
	end      time.Time // end of the schedule
	shots    []*shot
	lagMS    []float64
	latMS    []float64 // from due time; a failed request counts as missing every limit
	failed   int
	backlog  int     // requests still open when the schedule ended
	achieved float64 // requests completed per second, schedule start to last completion
}

// missedMS stands in for the latency of a failed request.
const missedMS = 1e9

// run sends round(rate·dur) requests at times drawn uniformly over the
// phase — a Poisson process conditioned on its count — each from its own
// goroutine at its due time, whether or not earlier ones have finished.
func (g *loadgen) run(rate, dur float64) *phase {
	n := int(math.Round(rate * dur))
	offs := make([]float64, n)
	for i := range offs {
		offs[i] = g.rng.Float64() * dur
	}
	slices.Sort(offs)
	p := &phase{rate: rate, shots: make([]*shot, n)}
	for i := range p.shots {
		p.shots[i] = &shot{req: g.mix.next()}
	}
	var wg sync.WaitGroup
	p.start = time.Now()
	p.end = p.start.Add(time.Duration(dur * float64(time.Second)))
	for i, s := range p.shots {
		s.due = p.start.Add(time.Duration(offs[i] * float64(time.Second)))
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		p.lagMS = append(p.lagMS, ms(time.Since(s.due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.send(s)
		}()
	}
	wg.Wait()
	last := p.start
	for _, s := range p.shots {
		if s.done.After(last) {
			last = s.done
		}
		if s.done.After(p.end) {
			p.backlog++
		}
		if g.check(s) {
			p.latMS = append(p.latMS, ms(s.done.Sub(s.due)))
		} else {
			p.failed++
			p.latMS = append(p.latMS, missedMS)
		}
	}
	g.shots = append(g.shots, p.shots...)
	p.achieved = ratio(float64(n), last.Sub(p.start).Seconds())
	return p
}

// passes reports whether a staircase step met the limit with no failed
// request and no growing backlog. By Little's law a queue holding more
// than rate·limit requests at the end makes later requests wait longer
// than the limit, so that is the growth threshold.
func (p *phase) passes(nproc int) bool {
	backlogLimit := math.Max(float64(2*nproc), p.rate*latencyLimitMS/1000)
	return len(p.shots) > 0 && p.failed == 0 && quantile(p.latMS, 0.95) <= latencyLimitMS && float64(p.backlog) <= backlogLimit
}

// check validates one response. Non-200 answers, bodies that break an
// endpoint invariant, and repeats whose body differs from the first
// answer to the same request are failures.
func (g *loadgen) check(s *shot) bool {
	b := g.b
	if s.err != nil || s.status != http.StatusOK {
		b.fail(1, "%s %s: status %d err %v", s.req.endpoint, s.req.body, s.status, s.err)
		return false
	}
	if err := checkBody(s.req, s.body); err != nil {
		b.fail(1, "%s %s: %v", s.req.endpoint, s.req.body, err)
		return false
	}
	key := string(s.req.body)
	first, seen := g.firstBody[key]
	if !seen {
		g.firstBody[key] = s.body
		return true
	}
	got := s.body
	if b.corrupt == "response" && !g.corrupted {
		g.corrupted = true
		got = append(slices.Clone(got[:len(got)-2]), got[len(got)-2]^1, got[len(got)-1])
	}
	g.repeats++
	if !bytes.Equal(first, got) {
		b.fail(1, "%s %s: repeated request answered %q, first answer %q", s.req.endpoint, s.req.body, got, first)
		return false
	}
	return true
}

// checkBody checks the invariants every correct answer satisfies.
func checkBody(r *request, body []byte) error {
	var v struct {
		Gates, Inputs, Outputs, Changed, Lanes, Steps int
		InternalFlips                                 int `json:"internal_flips"`
		OutputFlips                                   int `json:"output_flips"`
		Power, Energy, Horizon, Reduction             float64
		InternalPower                                 float64 `json:"internal_power"`
		OutputPower                                   float64 `json:"output_power"`
		PowerBefore                                   float64 `json:"power_before"`
		PowerAfter                                    float64 `json:"power_after"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	ok := true
	switch r.endpoint {
	case "analyze":
		ok = v.Gates > 0 && v.Inputs > 0 && v.Outputs > 0 && v.Power > 0 &&
			math.Abs(v.Power-(v.InternalPower+v.OutputPower)) <= 1e-9*v.Power
	case "optimize":
		ok = v.Gates > 0 && v.Changed >= 0 && v.Changed <= v.Gates && v.PowerAfter > 0 &&
			v.PowerAfter <= v.PowerBefore && v.Reduction == (v.PowerBefore-v.PowerAfter)/v.PowerBefore
	case "simulate":
		ok = v.Lanes == 16 && v.Steps > 0 && v.Energy >= 0 && v.InternalFlips >= 0 && v.OutputFlips > 0 &&
			v.Power == v.Energy/(float64(v.Lanes)*v.Horizon)
	}
	if !ok {
		return fmt.Errorf("answer breaks the %s invariants: %s", r.endpoint, bytes.TrimSpace(body))
	}
	return nil
}

// runServe measures serve-mix: servd set-up, a warm-up, the nominal-rate
// phase, then the rate staircase.
func (b *bench) runServe() error {
	probeRef := referenceSeconds()
	var setups []float64
	var srv *servd
	for i := 0; i < serveProbes; i++ {
		s, setup, err := b.startServd()
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		if i < serveProbes-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	g := &loadgen{
		b:   b,
		srv: srv,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: b.nproc, MaxIdleConnsPerHost: b.nproc},
		},
		mix:       newMix(b.seed),
		rng:       rand.New(rand.NewSource(b.seed ^ 0x5eed)),
		firstBody: map[string][]byte{},
	}

	// Warm-up: one request per circuit and kind, with seeds outside the
	// measured pool, fills the circuit and program caches as a server
	// that has been up for a while has them.
	for i, bench := range serveCircuits {
		for j, kind := range []string{"analyze", "optimize", "simulate-zero", "simulate-unit"} {
			s := &shot{req: g.mix.fresh(kind, bench, "AB"[j%2:j%2+1], -int64(1+i*4+j))}
			g.send(s)
			g.check(s)
			g.shots = append(g.shots, s)
		}
	}

	before, err := srv.scrape(g.client)
	if err != nil {
		return err
	}
	// The nominal phase runs in segments with the reference kernel
	// between them; the run's slowdown is the median over all windows
	// (set-up, segments, staircase), which a single noisy kernel time
	// cannot sway.
	refS := []float64{referenceSeconds()}
	var nominal []*phase
	for i := 0; i < nominalSegments; i++ {
		nominal = append(nominal, g.run(nominalRate, nominalShare*b.seconds/nominalSegments))
		refS = append(refS, referenceSeconds())
	}
	stepDur := (1 - nominalShare) * b.seconds / float64(len(staircase))
	var steps []*phase
	maxRPS, peak := 0.0, 0.0
	for _, rate := range staircase {
		p := g.run(rate, stepDur)
		steps = append(steps, p)
		peak = math.Max(peak, p.achieved)
		if !p.passes(b.nproc) {
			break
		}
		maxRPS = rate
	}
	refS = append(refS, referenceSeconds())
	slow := []float64{slowdown(probeRef, refS[0])}
	for i := range refS[1:] {
		slow = append(slow, slowdown(refS[i], refS[i+1]))
	}
	after, err := srv.scrape(g.client)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	srv.stop()
	stopped = true
	b.attempted += len(g.shots)

	var shots []*shot
	var lagMS, latMS []float64
	failed := 0
	for _, p := range nominal {
		shots = append(shots, p.shots...)
		lagMS = append(lagMS, p.lagMS...)
		latMS = append(latMS, p.latMS...)
		failed += p.failed
	}
	fmt.Printf("serve-mix seed=%d: set-up %.4f s; nominal %.0f/s: %d sent, %d failed, p50 %.2f ms, p95 %.2f ms, %d repeats checked byte for byte\n",
		b.seed, median(setups), nominalRate, len(shots), failed, quantile(latMS, 0.5), quantile(latMS, 0.95), g.repeats)
	fmt.Printf("%-10s %6s %9s %6s %9s %9s %8s %9s %s\n", "rate/s", "sent", "succeeded", "failed", "p50_ms", "p95_ms", "backlog", "done/s", "verdict")
	for i, p := range append(nominal, steps...) {
		verdict := "pass"
		if i < len(nominal) {
			verdict = fmt.Sprintf("nominal %d/%d", i+1, len(nominal))
		} else if !p.passes(b.nproc) {
			verdict = "fail"
		}
		fmt.Printf("%-10.0f %6d %9d %6d %9.2f %9.2f %8d %9.2f %s\n", p.rate, len(p.shots), len(p.shots)-p.failed, p.failed,
			quantile(p.latMS, 0.5), quantile(p.latMS, 0.95), p.backlog, p.achieved, verdict)
	}

	fmt.Printf("staircase: highest passing rate %.0f/s; peak completion rate %.2f/s raw\n", maxRPS, peak)
	printHost(append([]float64{probeRef}, refS...), slow)
	v := b.values
	v["setup_s"] = median(setups) / median(slow)
	v["throughput_per_s"] = peak * median(slow)
	// The median latency is taken per nominal segment, scaled by that
	// segment's own slowdown, and then over the segments, so a burst of
	// contention that slows one segment cannot move it. The p95 needs
	// every segment's samples (about 32 beyond it), so it is pooled.
	var segP50 []float64
	for i, p := range nominal {
		segP50 = append(segP50, quantile(p.latMS, 0.5)/slow[i+1])
	}
	v["latency_ms_p50"] = median(segP50)
	v["latency_ms_tail"] = quantile(latMS, 0.95) / median(slow)
	v["peak_rss_mb"] = rss

	byEndpoint := map[string][]float64{}
	for _, s := range shots {
		byEndpoint[s.req.endpoint] = append(byEndpoint[s.req.endpoint], ms(s.done.Sub(s.sent)))
	}
	for _, e := range []string{"analyze", "optimize", "simulate"} {
		v["serve."+e+".ms_p50"] = median(byEndpoint[e])
	}
	delta := func(series string) float64 { return after[series] - before[series] }
	for _, c := range []string{"response", "program", "circuit"} {
		sel := `{cache="` + c + `"}`
		hits := delta("servd_cache_hits_total" + sel)
		v["serve.cache."+c+".hit_frac"] = ratio(hits, hits+delta("servd_cache_misses_total"+sel)+delta("servd_cache_coalesced_total"+sel))
	}
	v["serve.shed"] = delta("servd_shed_total")
	for series := range after {
		if strings.HasPrefix(series, "servd_requests_total{") && strings.Contains(series, `code="503"`) {
			v["serve.deadline"] += delta(series)
		}
	}
	v["loadgen.lag_ms_p95"] = quantile(lagMS, 0.95)
	return nil
}

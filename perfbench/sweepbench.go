package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/sweep"
)

// simSubset is the ROADMAP's six-circuit simulation subset.
var simSubset = []string{"alu2", "cm138a", "x2", "z4ml", "cu", "rca8"}

// The simulation sweeps shrink the default stimulus horizons so one
// serial pass over the subset takes seconds rather than minutes; the
// scale cuts drawn, packed and simulated work per vector alike.
const (
	zeroHorizonScale  = 1.0 / 32 // 512 vectors per job
	timedHorizonScale = 1.0 / 8  // 64 vectors per job
	simReplicates     = 2        // replicate seeds: 24 distinct jobs, so the per-job percentiles depend less on one job's size
)

// setupProbes is how many extra worker processes a sweep run starts and
// stops at the ready point, so setup_s is a median of several set-ups.
const setupProbes = 9

// sweepSpecFor returns the sweep a workload runs at a seed.
func sweepSpecFor(workload string, seed int64, tiny bool) sweepSpec {
	ab := []string{"A", "B"}
	s := sweepSpec{Scenarios: ab, Modes: []string{"full"}, Seed: seed}
	switch workload {
	case "sweep-model":
		s.Modes = []string{"full", "input-only"}
		if tiny {
			s.Benchmarks = []string{"c17", "cm138a", "rca8"}
		}
		return s
	case "sweep-zero":
		s.Delay, s.Lanes, s.HorizonScale = "zero", 512, zeroHorizonScale
	case "sweep-timed":
		s.Delay, s.Lanes, s.HorizonScale = "unit", 64, timedHorizonScale
	}
	s.Benchmarks = simSubset
	s.Simulate = true
	s.Replicates = simReplicates
	if tiny {
		s.Benchmarks = []string{"cm138a", "rca8"}
		s.HorizonScale /= 64
	}
	return s
}

// round is one finished worker process.
type round struct {
	setup float64 // seconds from process start to its ready line
	reply workerReply
}

// spawn runs one worker process on a fresh store and waits for it.
func (b *bench) spawn(spec workerSpec) (*round, error) {
	dir, err := os.MkdirTemp(b.workDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec.StoreDir = dir
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.self, "worker")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(b.nproc))
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Read errors surface below: a worker that dies early fails Wait, and
	// a cut reply fails the ready check or the decode.
	out := bufio.NewReader(stdout)
	line, _ := out.ReadString('\n')
	r := &round{setup: time.Since(start).Seconds()}
	rest, _ := io.ReadAll(out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s worker: %w", spec.Kind, err)
	}
	if line != readyLine+"\n" {
		return nil, fmt.Errorf("%s worker: expected %q, read %q", spec.Kind, readyLine, line)
	}
	if spec.Kind != "probe" {
		if err := json.Unmarshal(rest, &r.reply); err != nil {
			return nil, fmt.Errorf("%s worker reply: %w", spec.Kind, err)
		}
	}
	return r, nil
}

// runSweep measures a sweep workload: set-up probes, then sweep.Run
// rounds (each its own process) until the window is spent, then the
// output checks. A traced run alternates each sweep round with a traced
// composition round and reports per-layer metrics instead.
func (b *bench) runSweep() error {
	spec := sweepSpecFor(b.workload, b.seed, b.tiny)
	opt, err := spec.options()
	if err != nil {
		return err
	}
	nJobs := len(sweep.Jobs(opt))

	probeRef := referenceSeconds()
	var probes []float64
	for i := 0; i < setupProbes; i++ {
		r, err := b.spawn(workerSpec{Kind: "probe", Sweep: spec})
		if err != nil {
			return err
		}
		probes = append(probes, r.setup)
	}

	var sweeps, traced, plain []*round
	refS := []float64{referenceSeconds()}
	start := time.Now()
	for {
		r, err := b.spawn(workerSpec{Kind: "sweep", Sweep: spec})
		if err != nil {
			return err
		}
		sweeps = append(sweeps, r)
		refS = append(refS, referenceSeconds())
		fmt.Printf("round %d: %d jobs in %.3f s, set-up %.1f ms, peak RSS %.1f MB\n",
			len(sweeps)-1, len(r.reply.Results), r.reply.WallS, 1e3*r.setup, r.reply.PeakRSSMB)
		if b.trace {
			break
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(sweeps)) > b.seconds {
			break
		}
	}
	// A traced run follows its one sweep.Run round with composition
	// rounds that alternate traced, untraced, traced, ... and end on a
	// traced one once the window is spent, so there are at least two
	// traced rounds and every untraced round sits between two of them.
	for b.trace {
		ws := workerSpec{Kind: "compose", Sweep: spec}
		if len(traced) == len(plain) {
			ws.Trace = true
			ws.SpansPath = filepath.Join(b.workDir, fmt.Sprintf("spans-%s-seed%d-round%d.jsonl", b.workload, b.seed, len(traced)))
		}
		r, err := b.spawn(ws)
		if err != nil {
			return err
		}
		if !ws.Trace {
			plain = append(plain, r)
			continue
		}
		traced = append(traced, r)
		elapsed := time.Since(start).Seconds()
		rounds := float64(1 + len(traced) + len(plain))
		if len(traced) >= 2 && elapsed+2*elapsed/rounds > b.seconds {
			break
		}
	}

	// Output checks: every round must be sane and identical to the
	// first; the composition must match it bit for bit.
	ref := sweeps[0].reply.Results
	for i, r := range sweeps {
		b.checkResults(fmt.Sprintf("sweep round %d", i), ref, r.reply.Results, nJobs, spec.Simulate)
		if r.reply.StoreErrors > 0 {
			b.fail(0, "sweep round %d: %d results not journaled", i, r.reply.StoreErrors)
		}
	}
	if b.trace {
		for i, t := range traced {
			b.checkComposition(fmt.Sprintf("traced composition round %d", i), ref, t, nJobs, spec.Simulate)
		}
		for i, p := range plain {
			b.checkComposition(fmt.Sprintf("untraced composition round %d", i), ref, p, nJobs, spec.Simulate)
		}
	} else {
		v, err := b.spawn(workerSpec{Kind: "compose", Sweep: spec, Oracle: spec.Simulate})
		if err != nil {
			return err
		}
		b.checkComposition("composition", ref, v, nJobs, spec.Simulate)
		if spec.Simulate {
			fmt.Printf("oracle: %d packed lanes re-simulated on the event-driven engine, %d disagreed\n",
				v.reply.OracleRuns, len(v.reply.Mismatches))
			if v.reply.OracleRuns == 0 {
				b.fail(0, "oracle checked no lanes")
			}
			for _, m := range v.reply.Mismatches {
				b.fail(1, "oracle: %s", m)
			}
		}
	}
	fmt.Printf("digest %s seed=%d jobs=%d sha256:%s\n", b.workload, b.seed, nJobs, resultsDigest(ref))

	if b.trace {
		b.layerMetrics(sweeps[0], traced, plain)
		return nil
	}
	// Each time is scaled by the slowdown measured around its window.
	var jobs, wall, scaledWall float64
	var jobMS, scaledMS, rss, slow, setups, scaledSetups []float64
	for _, x := range probes {
		setups = append(setups, x)
		scaledSetups = append(scaledSetups, x/slowdown(probeRef, refS[0]))
	}
	for i, r := range sweeps {
		s := slowdown(refS[i], refS[i+1])
		slow = append(slow, s)
		setups = append(setups, r.setup)
		scaledSetups = append(scaledSetups, r.setup/s)
		jobs += float64(len(r.reply.Results))
		wall += r.reply.WallS
		scaledWall += r.reply.WallS / s
		rss = append(rss, r.reply.PeakRSSMB)
		for _, res := range r.reply.Results {
			jobMS = append(jobMS, res.ElapsedMS)
			scaledMS = append(scaledMS, res.ElapsedMS/s)
		}
	}
	fmt.Printf("%d sweep rounds, %d jobs, %.3f s in sweep.Run; %d set-ups\n", len(sweeps), int(jobs), wall, len(setups))
	fmt.Printf("raw: set-up %.4f s, throughput %.4f jobs/s, job p50 %.3f ms, job p90 %.3f ms\n",
		median(setups), jobs/wall, median(jobMS), quantile(jobMS, 0.9))
	printHost(append([]float64{probeRef}, refS...), slow)
	b.values["setup_s"] = median(scaledSetups)
	b.values["throughput_per_s"] = jobs / scaledWall
	b.values["latency_ms_p50"] = median(scaledMS)
	b.values["latency_ms_tail"] = quantile(scaledMS, 0.9)
	b.values["peak_rss_mb"] = median(rss)
	return nil
}

// checkComposition checks one composition round against sweep.Run's
// results; the corrupt-result self-test hook perturbs it first.
func (b *bench) checkComposition(what string, ref []sweep.Result, r *round, nJobs int, simulate bool) {
	got := r.reply.Results
	if b.corrupt == "result" && len(got) > 0 {
		got[0].DelayInc = math.Nextafter(got[0].DelayInc, 1)
	}
	b.checkResults(what, ref, got, nJobs, simulate)
}

// checkResults counts got's jobs as attempted and fails every job that
// errored, breaks a model invariant, or differs from ref in any bit of
// any field but the timing.
func (b *bench) checkResults(what string, ref, got []sweep.Result, nJobs int, simulate bool) {
	b.attempted += nJobs
	if len(got) != nJobs {
		b.fail(nJobs, "%s: %d results for %d jobs", what, len(got), nJobs)
		return
	}
	for i, r := range got {
		if err := sane(r, simulate); err != nil {
			b.fail(1, "%s: job %d (%s %s %s): %v", what, i, r.Benchmark, r.Scenario, r.Mode, err)
			continue
		}
		if !sameResult(ref[i], r) {
			b.fail(1, "%s: job %d (%s %s %s) differs from sweep.Run: M %v/%v S %v/%v D %v/%v",
				what, i, r.Benchmark, r.Scenario, r.Mode,
				r.ModelRed, ref[i].ModelRed, r.SimRed, ref[i].SimRed, r.DelayInc, ref[i].DelayInc)
		}
	}
}

// sane checks what must hold for any correct Table 3 row.
func sane(r sweep.Result, simulate bool) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case r.Err != "":
		return fmt.Errorf("job failed: %s", r.Err)
	case r.Gates <= 0 || r.Changed < 0 || r.Changed > r.Gates:
		return fmt.Errorf("%d of %d gates changed", r.Changed, r.Gates)
	case !(r.PowerBest > 0) || r.PowerBest > r.PowerWorst || !finite(r.PowerWorst):
		return fmt.Errorf("best power %v, worst %v", r.PowerBest, r.PowerWorst)
	case r.ModelRed != (r.PowerWorst-r.PowerBest)/r.PowerWorst:
		return fmt.Errorf("M %v disagrees with the powers", r.ModelRed)
	case !finite(r.SimRed) || math.Abs(r.SimRed) >= 1 || (!simulate && r.SimRed != 0):
		return fmt.Errorf("S %v", r.SimRed)
	case !finite(r.DelayInc) || r.DelayInc <= -1:
		return fmt.Errorf("D %v", r.DelayInc)
	}
	return nil
}

// sameResult compares every field but the timing, floats bit for bit.
func sameResult(a, b sweep.Result) bool {
	a.ElapsedMS, b.ElapsedMS = 0, 0
	for _, p := range [][2]float64{
		{a.PowerBest, b.PowerBest}, {a.PowerWorst, b.PowerWorst},
		{a.ModelRed, b.ModelRed}, {a.SimRed, b.SimRed}, {a.DelayInc, b.DelayInc},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return a == b
}

// resultsDigest hashes every result field but the timing: two trees that
// print the same digest for a workload and seed computed the same table.
func resultsDigest(rs []sweep.Result) string {
	clean := make([]sweep.Result, len(rs))
	for i, r := range rs {
		r.ElapsedMS = 0
		clean[i] = r
	}
	return digest(clean)
}

// layerMetrics reports the traced rounds: per-layer self time (median
// over rounds), the work counters (which must repeat exactly), tracing
// overhead against the untraced composition rounds and coverage.
func (b *bench) layerMetrics(sw *round, traced, plain []*round) {
	first := traced[0].reply
	for i, t := range slices.Concat(traced[1:], plain) {
		what := fmt.Sprintf("traced round %d", i+1)
		if i >= len(traced)-1 {
			what = fmt.Sprintf("untraced round %d", i-len(traced)+1)
		}
		for name, v := range first.Counts {
			if name != "stoch.pack.alloc_bytes" && t.reply.Counts[name] != v {
				b.fail(0, "%s: %s = %v, traced round 0 read %v", what, name, t.reply.Counts[name], v)
			}
		}
	}
	busyOf := func(layer string) float64 {
		var xs []float64
		for _, t := range traced {
			xs = append(xs, busy(t.reply.Layers, layer))
		}
		return median(xs)
	}
	var jobWall, overhead, coverage []float64
	for _, t := range traced {
		jobWall = append(jobWall, t.reply.JobWallS)
		coverage = append(coverage, ratio(t.reply.JobWallS-busy(t.reply.Layers, rootSpan), t.reply.JobWallS))
	}
	// Each untraced round is compared with the mean of the traced rounds
	// around it, which cancels a steady drift of the host's speed.
	for i, p := range plain {
		overhead = append(overhead, (traced[i].reply.WallS+traced[i+1].reply.WallS)/2/p.reply.WallS-1)
	}
	wall := median(jobWall)
	c := first.Counts
	v := b.values
	for _, layer := range []string{"mcnc.load", "reorder", "delay", "stoch.draw", "stoch.pack", "sim.compile", "sim.run", "store.put"} {
		v[layer+".busy_s"] = busyOf(layer)
	}
	for _, name := range countNames {
		v[name] = c[name]
	}
	v["stoch.pack.alloc_mb"] = c["stoch.pack.alloc_bytes"] / (1 << 20)
	v["reorder.us_per_gate"] = 1e6 * ratio(v["reorder.busy_s"], c["reorder.gates"])
	v["stoch.draw.ns_per_transition"] = 1e9 * ratio(v["stoch.draw.busy_s"], c["stoch.draw.transitions"])
	v["stoch.pack.ns_per_event"] = 1e9 * ratio(v["stoch.pack.busy_s"], c["stoch.pack.events"])
	v["sim.run.ns_per_vector"] = 1e9 * ratio(v["sim.run.busy_s"], c["sim.run.vectors"])
	for _, layer := range []string{"reorder", "stoch.draw", "stoch.pack", "sim.run"} {
		v[layer+".share"] = ratio(v[layer+".busy_s"], wall)
	}
	cs := sw.reply.Cache
	v["sweep.cache.hit_frac"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses+cs.Coalesced))
	v["trace.overhead_frac"] = median(overhead)
	v["trace.coverage_frac"] = median(coverage)

	fmt.Printf("self time by layer, %s seed=%d, traced round 0 (%d rounds; job wall %.3f s, untraced composition wall %.3f s, sweep.Run wall %.3f s):\n",
		b.workload, b.seed, len(traced), first.JobWallS, plain[0].reply.WallS, sw.reply.WallS)
	fmt.Print(formatTable(first.Layers))
	fmt.Printf("tracing overhead %+.1f%%, coverage %.1f%%\n", 100*v["trace.overhead_frac"], 100*v["trace.coverage_frac"])
}

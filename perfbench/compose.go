package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/expt"
	"repro/internal/mcnc"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/stoch"
	"repro/internal/store"
	"repro/internal/sweep"
)

// sweepSpec is the input of one sweep workload at one seed: everything a
// worker process needs to rebuild the sweep.Options.
type sweepSpec struct {
	Benchmarks   []string `json:"benchmarks,omitempty"` // empty: all of Table 3
	Scenarios    []string `json:"scenarios"`
	Modes        []string `json:"modes"`
	Seed         int64    `json:"seed"`
	Replicates   int      `json:"replicates,omitempty"` // replicate seeds per job; 0 means 1
	Simulate     bool     `json:"simulate"`
	Delay        string   `json:"delay,omitempty"` // zero | unit
	Lanes        int      `json:"lanes,omitempty"` // register-block width; vectors = one block
	HorizonScale float64  `json:"horizon_scale,omitempty"`
}

// options builds the serial sweep the spec describes.
func (s sweepSpec) options() (sweep.Options, error) {
	opt := sweep.DefaultOptions()
	opt.Benchmarks = s.Benchmarks
	opt.Seeds = []int64{s.Seed}
	for i := 1; i < s.Replicates; i++ {
		opt.Seeds = append(opt.Seeds, s.Seed+int64(i)<<32)
	}
	opt.Workers = 1
	opt.Simulate = s.Simulate
	opt.Scenarios = nil
	for _, name := range s.Scenarios {
		sc, err := sweep.ParseScenario(name)
		if err != nil {
			return opt, err
		}
		opt.Scenarios = append(opt.Scenarios, sc)
	}
	opt.Modes = nil
	for _, name := range s.Modes {
		m, err := sweep.ParseMode(name)
		if err != nil {
			return opt, err
		}
		opt.Modes = append(opt.Modes, m)
	}
	if !s.Simulate {
		return opt, nil
	}
	switch s.Delay {
	case "zero":
		opt.Expt.Sim.Mode = sim.ZeroDelay
	case "unit":
		opt.Expt.Sim.Mode = sim.UnitDelay
	default:
		return opt, fmt.Errorf("unknown delay mode %q", s.Delay)
	}
	opt.Expt.SimLanes = s.Lanes
	opt.Expt.SimVectors = s.Lanes
	if s.HorizonScale > 0 {
		opt.Expt.HorizonA *= s.HorizonScale
		opt.Expt.CyclesB = int(math.Round(float64(opt.Expt.CyclesB) * s.HorizonScale))
	}
	return opt, nil
}

// composer runs a sweep's jobs by calling each layer's public function in
// the order sweep.computeJob does, so every call can be timed from
// outside. Its results must equal sweep.Run's bit for bit.
type composer struct {
	opt      sweep.Options
	store    *store.Store
	tr       *tracer            // nil: untraced
	counts   map[string]float64 // work done per layer; see countNames
	circuits map[string]*circuit.Circuit
	// oracle re-measures two lanes of each job's first pack on the
	// event-driven engine and records any disagreement in mismatches.
	oracle      bool
	oracleRuns  int
	mismatches  []string
	mem         runtime.MemStats
	root, jobID int32 // the current job's span and ID
}

// countNames are the work counters a traced composition reports; they
// are exact functions of the seed.
var countNames = []string{
	"mcnc.load.calls", "reorder.calls", "reorder.gates", "delay.calls",
	"stoch.draw.transitions", "stoch.pack.calls", "stoch.pack.events", "stoch.pack.alloc_bytes",
	"sim.compile.calls", "sim.compile.ops", "sim.run.calls", "sim.run.vectors", "sim.run.instants",
	"store.put.calls", "store.put.bytes",
}

func newComposer(opt sweep.Options, st *store.Store, tr *tracer, oracle bool) *composer {
	return &composer{
		opt:      opt,
		store:    st,
		tr:       tr,
		counts:   map[string]float64{},
		circuits: map[string]*circuit.Circuit{},
		oracle:   oracle,
	}
}

// run computes every job of the sweep in job order.
func (cp *composer) run() ([]sweep.Result, error) {
	jobs := sweep.Jobs(cp.opt)
	out := make([]sweep.Result, len(jobs))
	for i, job := range jobs {
		if err := cp.job(job, &out[i]); err != nil {
			return nil, fmt.Errorf("job %d (%s %s %s): %w", job.Index, job.Benchmark, job.Scenario, job.Mode, err)
		}
	}
	return out, nil
}

// call runs f inside a span of the current job.
func (cp *composer) call(name string, f func()) {
	s := cp.tr.begin(name, cp.root, cp.jobID)
	f()
	cp.tr.end(s)
}

// job mirrors sweep.computeJob plus the sweep's store write.
func (cp *composer) job(job sweep.Job, res *sweep.Result) error {
	cp.jobID = int32(job.Index)
	cp.root = cp.tr.begin(rootSpan, -1, cp.jobID)
	defer cp.tr.end(cp.root)
	*res = sweep.Result{
		Index:     job.Index,
		Benchmark: job.Benchmark,
		Scenario:  job.Scenario.String(),
		Mode:      job.Mode.String(),
		Seed:      job.Seed,
	}

	c, ok := cp.circuits[job.Benchmark]
	if !ok {
		var err error
		cp.call("mcnc.load", func() { c, err = mcnc.Load(job.Benchmark, cp.opt.Expt.Lib) })
		if err != nil {
			return err
		}
		cp.circuits[job.Benchmark] = c
		cp.counts["mcnc.load.calls"]++
	}
	res.Gates = len(c.Gates)

	eo := cp.opt.Expt
	eo.Seed = job.EffectiveSeed()
	var pi map[string]stoch.Signal
	cp.call("expt.stats", func() { pi = expt.InputStats(c, job.Scenario, eo) })

	ro := reorder.DefaultOptions()
	ro.Mode = job.Mode
	ro.Params = eo.Params
	ro.Delay = eo.Delay
	ro.Workers = 1
	var best, worst *reorder.Report
	var err error
	cp.call("reorder", func() { best, worst, err = reorder.BestAndWorst(c, pi, ro) })
	if err != nil {
		return err
	}
	cp.counts["reorder.calls"]++
	cp.counts["reorder.gates"] += float64(len(c.Gates))
	res.Changed = best.GatesChanged
	res.PowerBest = best.PowerAfter
	res.PowerWorst = worst.PowerAfter
	if worst.PowerAfter > 0 {
		res.ModelRed = (worst.PowerAfter - best.PowerAfter) / worst.PowerAfter
	}

	if cp.opt.Simulate {
		res.SimRed, err = cp.simReduction(c, best.Circuit, worst.Circuit, pi, job.Scenario, eo)
		if err != nil {
			return err
		}
	}

	var d0, d1 *delay.Result
	cp.call("delay", func() { d0, err = delay.CircuitDelay(c, eo.Delay) })
	if err != nil {
		return err
	}
	cp.call("delay", func() { d1, err = delay.CircuitDelay(best.Circuit, eo.Delay) })
	if err != nil {
		return err
	}
	cp.counts["delay.calls"] += 2
	if d0.Delay != 0 {
		res.DelayInc = (d1.Delay - d0.Delay) / d0.Delay
	}
	if cp.store != nil {
		key := job.StoreKey(cp.opt)
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		cp.call("store.put", func() { err = cp.store.Put(key, data) })
		if err != nil {
			return err
		}
		cp.counts["store.put.calls"]++
		cp.counts["store.put.bytes"] += float64(len(data))
	}
	return nil
}

// simReduction mirrors expt.SimReduction → sim.ReductionVectors on the
// bit-parallel engines: compile both circuits (timed ones on one shared
// tick grid), then per register block draw the lanes, pack them, and
// meter the pack on both programs.
func (cp *composer) simReduction(c, best, worst *circuit.Circuit, pi map[string]stoch.Signal, sc expt.Scenario, eo expt.Options) (float64, error) {
	rng := rand.New(rand.NewSource(eo.Seed))
	sigs := pi
	horizon := eo.HorizonA
	if sc == expt.ScenarioB {
		sigs = make(map[string]stoch.Signal, len(pi))
		for net, s := range pi {
			sigs[net] = stoch.Signal{P: s.P, D: s.D * eo.PeriodB}
		}
		horizon = float64(eo.CyclesB) * eo.PeriodB
	}
	gen := func() (map[string]*stoch.Waveform, error) {
		if sc == expt.ScenarioB {
			return sim.GenerateClockedWaveforms(c.Inputs, sigs, eo.CyclesB, eo.PeriodB, rng)
		}
		return sim.GenerateWaveforms(c.Inputs, sigs, eo.HorizonA, rng)
	}
	lanes := eo.SimLanes
	if lanes == 0 {
		lanes = stoch.MaxLanes
	}
	vectors := eo.SimVectors
	if vectors == 0 {
		vectors = lanes
	}
	prm := eo.Sim

	// runEnergy and runLanes meter one packed stimulus on a compiled
	// program; pack builds the stimulus from drawn lanes.
	type program struct {
		runEnergy func(stim any) (float64, error)
		runLanes  func(stim any) (*sim.BitResult, error)
		ops       int
	}
	var progs [2]program // best, worst
	var pack func(laneWaves []map[string]*stoch.Waveform) (stim any, lanes, instants int, err error)
	var err error
	if prm.Mode == sim.ZeroDelay {
		for i, ckt := range []*circuit.Circuit{best, worst} {
			var p *sim.Program
			cp.call("sim.compile", func() { p, err = sim.Compile(ckt, prm) })
			if err != nil {
				return 0, err
			}
			progs[i] = program{
				runEnergy: func(s any) (float64, error) { return p.RunEnergy(s.(*stoch.PackedStimulus)) },
				runLanes:  func(s any) (*sim.BitResult, error) { return p.RunLanes(s.(*stoch.PackedStimulus)) },
				ops:       p.NumOps(),
			}
		}
		pack = func(lw []map[string]*stoch.Waveform) (any, int, int, error) {
			stim, err := stoch.PackWaveforms(best.Inputs, lw, horizon)
			if err != nil {
				return nil, 0, 0, err
			}
			return stim, stim.Lanes, stim.Steps, nil
		}
	} else {
		if prm.Tick == 0 {
			var tb, tw float64
			cp.call("sim.tickplan", func() {
				if tb, _, _, err = sim.TickPlan(best, prm); err == nil {
					tw, _, _, err = sim.TickPlan(worst, prm)
				}
			})
			if err != nil {
				return 0, err
			}
			prm.Tick = math.Min(tb, tw)
		}
		var guard int64
		for i, ckt := range []*circuit.Circuit{best, worst} {
			var p *sim.TimedProgram
			cp.call("sim.compile", func() { p, err = sim.CompileTimed(ckt, prm) })
			if err != nil {
				return 0, err
			}
			guard = max(guard, p.SettleTicks())
			progs[i] = program{
				runEnergy: func(s any) (float64, error) { return p.RunEnergy(s.(*stoch.TimedStimulus)) },
				runLanes:  func(s any) (*sim.BitResult, error) { return p.RunLanes(s.(*stoch.TimedStimulus)) },
				ops:       p.NumOps(),
			}
		}
		tick := prm.Tick
		pack = func(lw []map[string]*stoch.Waveform) (any, int, int, error) {
			stim, err := stoch.PackTimedWaveforms(best.Inputs, lw, horizon, tick, guard)
			if err != nil {
				return nil, 0, 0, err
			}
			return stim, stim.Lanes, len(stim.Ticks), nil
		}
	}
	pb, pw := progs[0], progs[1]
	cp.counts["sim.compile.calls"] += 2
	cp.counts["sim.compile.ops"] += float64(pb.ops + pw.ops)

	var eb, ew float64
	laneWaves := make([]map[string]*stoch.Waveform, 0, lanes)
	for done := 0; done < vectors; {
		n := min(lanes, vectors-done)
		laneWaves = laneWaves[:0]
		for l := 0; l < n; l++ {
			var w map[string]*stoch.Waveform
			cp.call("stoch.draw", func() { w, err = gen() })
			if err != nil {
				return 0, err
			}
			for _, wf := range w {
				cp.counts["stoch.draw.transitions"] += float64(len(wf.Events))
			}
			laneWaves = append(laneWaves, w)
		}
		var stim any
		var packed, instants int
		var before uint64
		if cp.tr != nil {
			runtime.ReadMemStats(&cp.mem)
			before = cp.mem.TotalAlloc
		}
		cp.call("stoch.pack", func() { stim, packed, instants, err = pack(laneWaves) })
		if err != nil {
			return 0, err
		}
		if cp.tr != nil {
			runtime.ReadMemStats(&cp.mem)
			cp.counts["stoch.pack.alloc_bytes"] += float64(cp.mem.TotalAlloc - before)
		}
		cp.counts["stoch.pack.calls"]++
		for _, w := range laneWaves {
			for _, wf := range w {
				cp.counts["stoch.pack.events"] += float64(len(wf.Events))
			}
		}
		var cb, cw float64
		cp.call("sim.run", func() { cb, err = pb.runEnergy(stim) })
		if err != nil {
			return 0, fmt.Errorf("best circuit: %w", err)
		}
		cp.call("sim.run", func() { cw, err = pw.runEnergy(stim) })
		if err != nil {
			return 0, fmt.Errorf("worst circuit: %w", err)
		}
		cp.counts["sim.run.calls"] += 2
		cp.counts["sim.run.vectors"] += 2 * float64(packed)
		cp.counts["sim.run.instants"] += 2 * float64(instants)
		if cp.oracle && done == 0 {
			if err := cp.checkLanes(best, pb.runLanes, stim, laneWaves, horizon, prm); err != nil {
				return 0, err
			}
		}
		eb += cb
		ew += cw
		done += n
	}
	if ew == 0 {
		return 0, nil
	}
	return (ew - eb) / ew, nil
}

// checkLanes is the simulation oracle: the first and last lane of a pack,
// re-simulated alone on the event-driven engine from the raw waveforms,
// must reproduce the packed run's per-lane flip counts exactly and its
// energy to 1e-9 — so a packing or kernel change that alters any
// simulated statistic is caught even when both sides of the bit-for-bit
// comparison share the broken layer.
func (cp *composer) checkLanes(c *circuit.Circuit, runLanes func(any) (*sim.BitResult, error), stim any, laneWaves []map[string]*stoch.Waveform, horizon float64, prm sim.Params) error {
	br, err := runLanes(stim)
	if err != nil {
		return err
	}
	ev := prm
	ev.Engine = sim.EventDriven
	for _, l := range []int{0, len(laneWaves) - 1} {
		ref, err := sim.Run(c, laneWaves[l], horizon, ev)
		if err != nil {
			return err
		}
		cp.oracleRuns++
		if br.LaneInternalFlips[l] != ref.InternalFlips || br.LaneOutputFlips[l] != ref.OutputFlips ||
			math.Abs(br.LaneEnergy[l]-ref.Energy) > 1e-9*math.Max(ref.Energy, 1e-30) {
			cp.mismatches = append(cp.mismatches, fmt.Sprintf(
				"%s lane %d: packed run %d/%d flips %g J, event engine %d/%d flips %g J",
				c.Name, l, br.LaneInternalFlips[l], br.LaneOutputFlips[l], br.LaneEnergy[l],
				ref.InternalFlips, ref.OutputFlips, ref.Energy))
		}
	}
	return nil
}

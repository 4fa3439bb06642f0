package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/stoch"
)

// relClose reports whether two floats agree to within rel (absolute for
// tiny values). The incremental engine maintains totals by deltas, so it
// can differ from a fresh summation in the last few ulps.
func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-30 {
		return true
	}
	return math.Abs(a-b)/scale <= rel
}

func randomInputs(c *circuit.Circuit, rng *rand.Rand) map[string]stoch.Signal {
	pi := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.02 + 0.96*rng.Float64(), D: rng.Float64() * 1e6}
	}
	return pi
}

// checkAgainstFull compares the engine's state with a from-scratch
// AnalyzeCircuit on the engine's circuit and the given inputs.
func checkAgainstFull(t *testing.T, inc *Incremental, pi map[string]stoch.Signal, prm Params, step string) {
	t.Helper()
	full, err := AnalyzeCircuit(inc.Circuit(), pi, prm)
	if err != nil {
		t.Fatalf("%s: full analysis: %v", step, err)
	}
	const rel = 1e-9
	if !relClose(inc.Power(), full.Power, rel) {
		t.Fatalf("%s: incremental power %v != full %v", step, inc.Power(), full.Power)
	}
	if !relClose(inc.InternalPower(), full.InternalPower, rel) {
		t.Fatalf("%s: incremental internal %v != full %v", step, inc.InternalPower(), full.InternalPower)
	}
	if !relClose(inc.OutputPower(), full.OutputPower, rel) {
		t.Fatalf("%s: incremental output %v != full %v", step, inc.OutputPower(), full.OutputPower)
	}
	snap := inc.Analysis()
	for net, want := range full.NetStats {
		got, ok := snap.NetStats[net]
		if !ok {
			t.Fatalf("%s: net %q missing from incremental state", step, net)
		}
		// Statistics are recomputed by the same pure function, never
		// accumulated, so they must match exactly.
		if got != want {
			t.Fatalf("%s: net %q stats %v != full %v", step, net, got, want)
		}
	}
	for name, want := range full.PerGate {
		if got := snap.PerGate[name]; !relClose(got, want, rel) {
			t.Fatalf("%s: gate %q power %v != full %v", step, name, got, want)
		}
	}
}

// TestIncrementalMatchesFullOnEmbedded is the equivalence property test:
// on every embedded benchmark, a long random walk of configuration changes
// and input-statistics changes through the incremental engine must land in
// exactly the state a full AnalyzeCircuit computes from scratch.
func TestIncrementalMatchesFullOnEmbedded(t *testing.T) {
	lib := library.Default()
	for _, name := range mcnc.EmbeddedNames() {
		t.Run(name, func(t *testing.T) {
			c, err := mcnc.Load(name, lib)
			if err != nil {
				t.Fatal(err)
			}
			prm := DefaultParams()
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			pi := randomInputs(c, rng)
			inc, err := NewIncremental(c, pi, prm)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstFull(t, inc, pi, prm, "initial")
			for step := 0; step < 40; step++ {
				if rng.Intn(2) == 0 {
					// Reorder a random gate to a random configuration.
					g := c.Gates[rng.Intn(len(c.Gates))]
					cfgs := g.Cell.AllConfigs()
					if err := inc.SetConfig(g.Name, cfgs[rng.Intn(len(cfgs))]); err != nil {
						t.Fatalf("step %d: SetConfig: %v", step, err)
					}
				} else {
					// Perturb a random subset of the primary inputs.
					for _, in := range c.Inputs {
						if rng.Intn(3) == 0 {
							pi[in] = stoch.Signal{P: 0.02 + 0.96*rng.Float64(), D: rng.Float64() * 1e6}
						}
					}
					if err := inc.SetInputs(pi); err != nil {
						t.Fatalf("step %d: SetInputs: %v", step, err)
					}
				}
			}
			checkAgainstFull(t, inc, pi, prm, "after walk")
		})
	}
}

// TestIncrementalConeIsLocal asserts the point of the engine: a
// configuration change re-evaluates one gate, not the circuit, because
// reordering preserves the output function and therefore the output
// statistics.
func TestIncrementalConeIsLocal(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	rng := rand.New(rand.NewSource(42))
	pi := randomInputs(c, rng)
	inc, err := NewIncremental(c, pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	base := inc.Recomputed()
	if base != len(c.Gates) {
		t.Fatalf("initial analysis evaluated %d gates, circuit has %d", base, len(c.Gates))
	}
	moves := 0
	for _, g := range c.Gates {
		cfgs := g.Cell.AllConfigs()
		if len(cfgs) < 2 {
			continue
		}
		for _, cfg := range cfgs {
			if cfg.ConfigKey() != g.Cell.ConfigKey() {
				if err := inc.SetConfig(g.Name, cfg); err != nil {
					t.Fatal(err)
				}
				moves++
				break
			}
		}
	}
	if moves == 0 {
		t.Fatal("no reorderable gates in rca8")
	}
	if got := inc.Recomputed() - base; got != moves {
		t.Fatalf("%d moves triggered %d gate evaluations; want exactly one each", moves, got)
	}
	checkAgainstFull(t, inc, pi, prm, "after moves")
}

// TestIncrementalInputConeStopsEarly checks frontier cutoff in the other
// direction: changing one primary input re-evaluates only its fan-out
// cone, which on the ripple-carry adder is a strict subset of the circuit
// for high-order operand bits.
func TestIncrementalInputConeStopsEarly(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	prm := DefaultParams()
	pi := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 1e5}
	}
	inc, err := NewIncremental(c, pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	base := inc.Recomputed()
	// a7 feeds only the last adder stage; its cone must be far smaller
	// than the circuit.
	pi["a7"] = stoch.Signal{P: 0.9, D: 5e5}
	if err := inc.SetInputs(pi); err != nil {
		t.Fatal(err)
	}
	cone := inc.Recomputed() - base
	if cone == 0 || cone >= len(c.Gates)/2 {
		t.Fatalf("a7 cone re-evaluated %d of %d gates; want a small nonzero subset", cone, len(c.Gates))
	}
	checkAgainstFull(t, inc, pi, prm, "after input change")
}

// TestIncrementalRejectsBadConfig covers the structural guards.
func TestIncrementalRejectsBadConfig(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("c17", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := make(map[string]stoch.Signal, len(c.Inputs))
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 1e5}
	}
	inc, err := NewIncremental(c, pi, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.SetConfig("no-such-instance", c.Gates[0].Cell); err == nil {
		t.Fatal("SetConfig on unknown instance succeeded")
	}
	inv := lib.MustCell("inv").Proto
	var wide *circuit.Instance
	for _, g := range c.Gates {
		if len(g.Pins) > 1 {
			wide = g
			break
		}
	}
	if wide == nil {
		t.Skip("no multi-input gate in c17")
	}
	if err := inc.SetConfig(wide.Name, inv); err == nil {
		t.Fatal("SetConfig with mismatched pin count succeeded")
	}
	// Same pin names, different cell: a nor2 is not a reordering of a
	// nand2 and must be rejected, or the analysis would silently
	// describe a different circuit.
	nor := lib.MustCell("nor2").Proto
	if nor.ShapeKey() != wide.Cell.ShapeKey() {
		if err := inc.SetConfig(wide.Name, nor); err == nil {
			t.Fatalf("SetConfig accepted %s for an instance of %s", nor.Name, wide.Cell.Name)
		}
	}
}

// TestPosHeapPopsMinimum checks the typed frontier heap: with pushes and
// pops interleaved, every pop returns the least position pushed and not
// yet popped.
func TestPosHeapPopsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var h posHeap
		var live []int // reference: positions pushed and not yet popped
		popCheck := func() {
			want := slices.Min(live)
			live = slices.DeleteFunc(live, func(x int) bool { return x == want })
			if got := h.pop(); got != want {
				t.Fatalf("trial %d: pop %d, want %d", trial, got, want)
			}
		}
		for k, x := range rng.Perm(1 + rng.Intn(600)) {
			h.push(x)
			live = append(live, x)
			if k%7 == 6 {
				popCheck()
			}
		}
		for len(live) > 0 {
			popCheck()
		}
		if len(h) != 0 {
			t.Fatalf("trial %d: %d positions left in the heap", trial, len(h))
		}
	}
}

package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/gate"
	"repro/internal/library"
	"repro/internal/mcnc"
	"repro/internal/stoch"
)

// TestAnalyzeConfigsMatchesAnalyzeGate pins the batched path to the
// reference evaluator bit for bit: for every configuration of every
// library cell, the summary numbers of AnalyzeConfigs must equal
// AnalyzeGate's exactly (the two share arithmetic operation for
// operation), and the candidate order must be AllConfigs order.
func TestAnalyzeConfigsMatchesAnalyzeGate(t *testing.T) {
	prm := DefaultParams()
	for _, cell := range library.Default().Cells() {
		g := cell.Proto
		in := make([]stoch.Signal, len(g.Inputs))
		for i := range in {
			in[i] = stoch.Signal{P: 0.15 + 0.1*float64(i), D: 1e5 * float64(i+1)}
		}
		load := prm.OutputLoad(2)
		batch, err := AnalyzeConfigs(g, in, load, prm)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		cfgs := g.AllConfigs()
		if len(batch) != len(cfgs) {
			t.Fatalf("%s: %d batch results for %d configs", g.Name, len(batch), len(cfgs))
		}
		for i, cp := range batch {
			if cp.Config.ConfigKey() != cfgs[i].ConfigKey() {
				t.Fatalf("%s: batch result %d is %s, AllConfigs has %s",
					g.Name, i, cp.Config.ConfigKey(), cfgs[i].ConfigKey())
			}
			ref, err := AnalyzeGate(cfgs[i], in, load, prm)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Power != ref.Power || cp.InternalPower != ref.InternalPower ||
				cp.OutputPower != ref.OutputPower || cp.Out != ref.Out {
				t.Errorf("%s config %s: batch (%g, %g, %g, %v) != reference (%g, %g, %g, %v)",
					g.Name, cfgs[i].ConfigKey(),
					cp.Power, cp.InternalPower, cp.OutputPower, cp.Out,
					ref.Power, ref.InternalPower, ref.OutputPower, ref.Out)
			}
		}
	}
}

// TestAnalyzeConfigsMonotonicProperty asserts the Section 4.2 property the
// parallel optimizer rests on, as exposed by the batch API: every
// configuration of a cell propagates identical output statistics.
func TestAnalyzeConfigsMonotonicProperty(t *testing.T) {
	prm := DefaultParams()
	for _, cell := range library.Default().Cells() {
		g := cell.Proto
		in := make([]stoch.Signal, len(g.Inputs))
		for i := range in {
			in[i] = stoch.Signal{P: 0.4, D: 2e5}
		}
		batch, err := AnalyzeConfigs(g, in, prm.OutputLoad(1), prm)
		if err != nil {
			t.Fatal(err)
		}
		for _, cp := range batch[1:] {
			if cp.Out != batch[0].Out {
				t.Errorf("%s: config %s propagates %v, config %s propagates %v",
					g.Name, cp.Config.ConfigKey(), cp.Out, batch[0].Config.ConfigKey(), batch[0].Out)
			}
		}
	}
}

// TestAnalyzeConfigsErrors covers the validation paths of the batch API.
func TestAnalyzeConfigsErrors(t *testing.T) {
	g := library.Default().MustCell("nand2").Proto
	in := []stoch.Signal{{P: 0.5, D: 1}, {P: 0.5, D: 1}}
	if _, err := AnalyzeConfigs(g, in, 1e-15, Params{}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := AnalyzeConfigs(g, in[:1], 1e-15, DefaultParams()); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := AnalyzeConfigs(g, in, -1, DefaultParams()); err == nil {
		t.Error("negative load accepted")
	}
	bad := []stoch.Signal{{P: 2, D: 1}, {P: 0.5, D: 1}}
	if _, err := AnalyzeConfigs(g, bad, 1e-15, DefaultParams()); err == nil {
		t.Error("invalid signal accepted")
	}
	if _, err := AnalyzeConfigList(g.AllConfigs(), in[:1], 1e-15, DefaultParams()); err == nil {
		t.Error("AnalyzeConfigList accepted wrong input count")
	}
	if _, err := AnalyzeConfigList(nil, nil, 1e-15, DefaultParams()); err != nil {
		t.Errorf("empty candidate list should evaluate to empty, got %v", err)
	}
	wide := make([]stoch.Signal, 17)
	for i := range wide {
		wide[i] = stoch.Signal{P: 0.5, D: 1}
	}
	if _, err := AnalyzeConfigList(nil, wide, 1e-15, DefaultParams()); err == nil {
		t.Error("more input signals than the weight table supports accepted")
	}
}

// TestIncrementalParallelConstructionEquivalent pins the wavefront
// constructor's contract: for every embedded benchmark and several worker
// counts, the constructed engine state must be bit-identical to the
// serial construction (exact float equality on every total, every
// per-gate power, every net statistic).
func TestIncrementalParallelConstructionEquivalent(t *testing.T) {
	lib := library.Default()
	prm := DefaultParams()
	for _, name := range mcnc.EmbeddedNames() {
		c, err := mcnc.Load(name, lib)
		if err != nil {
			t.Fatal(err)
		}
		pi := map[string]stoch.Signal{}
		for i, in := range c.Inputs {
			pi[in] = stoch.Signal{P: 0.2 + 0.07*float64(i%10), D: 1e5 * float64(1+i%5)}
		}
		serial, err := NewIncremental(c, pi, prm)
		if err != nil {
			t.Fatal(err)
		}
		want := serial.Analysis()
		for _, workers := range []int{2, 4, 8} {
			par, err := NewIncrementalParallel(c, pi, prm, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if par.Power() != serial.Power() || par.InternalPower() != serial.InternalPower() ||
				par.OutputPower() != serial.OutputPower() {
				t.Fatalf("%s workers=%d: totals (%g, %g, %g) != serial (%g, %g, %g)",
					name, workers, par.Power(), par.InternalPower(), par.OutputPower(),
					serial.Power(), serial.InternalPower(), serial.OutputPower())
			}
			got := par.Analysis()
			for g, p := range want.PerGate {
				if got.PerGate[g] != p {
					t.Fatalf("%s workers=%d: gate %s power %g != serial %g", name, workers, g, got.PerGate[g], p)
				}
			}
			for net, s := range want.NetStats {
				if got.NetStats[net] != s {
					t.Fatalf("%s workers=%d: net %s stats %v != serial %v", name, workers, net, got.NetStats[net], s)
				}
			}
		}
	}
}

// TestIncrementalParallelHook checks the wavefront hook contract: it runs
// exactly once per gate, sees settled pin statistics, and its errors fail
// construction deterministically (lowest position).
func TestIncrementalParallelHook(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca8", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 1e5}
	}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		seen := map[int]int{}
		_, err := NewIncrementalParallelFunc(c, pi, DefaultParams(), workers,
			func(inc *Incremental, i int) error {
				in, err := inc.InputsAt(i, nil)
				if err != nil {
					return err // a pin's statistics were not settled
				}
				if len(in) != len(inc.Order()[i].Pins) {
					return fmt.Errorf("position %d: %d signals for %d pins", i, len(in), len(inc.Order()[i].Pins))
				}
				for _, s := range in {
					if err := s.Validate(); err != nil {
						return fmt.Errorf("position %d: unsettled pin statistics: %w", i, err)
					}
				}
				mu.Lock()
				seen[i]++
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != len(c.Gates) {
			t.Fatalf("workers=%d: hook ran for %d of %d gates", workers, len(seen), len(c.Gates))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: hook ran %d times for position %d", workers, n, i)
			}
		}
	}
	// Hook errors fail construction with the lowest-position error.
	for _, workers := range []int{1, 4} {
		wantErr := fmt.Errorf("boom")
		_, err := NewIncrementalParallelFunc(c, pi, DefaultParams(), workers,
			func(inc *Incremental, i int) error {
				if i >= 3 {
					return fmt.Errorf("boom at %d", i)
				}
				if i == 2 {
					return wantErr
				}
				return nil
			})
		if err == nil || err.Error() != "boom" {
			t.Fatalf("workers=%d: construction error = %v, want boom (position 2)", workers, err)
		}
	}
}

// TestSetConfigEvaluatedMatchesSetConfig pins the commit fast path: the
// engine state after SetConfigEvaluated with an AnalyzeConfigs result
// must be bit-identical to SetConfigAt re-evaluating the model.
func TestSetConfigEvaluatedMatchesSetConfig(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for i, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.35 + 0.03*float64(i), D: 1e5 * float64(1+i%4)}
	}
	prm := DefaultParams()
	a, err := NewIncremental(c.Clone(), pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIncremental(c.Clone(), pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range a.Order() {
		in, err := a.InputsAt(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := AnalyzeConfigs(g.Cell, in, a.LoadAt(i), prm)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) < 2 {
			continue
		}
		// Pick a non-current candidate.
		cp := cands[0]
		if cp.Config.ConfigKey() == g.Cell.ConfigKey() {
			cp = cands[1]
		}
		if err := a.SetConfigEvaluated(i, cp); err != nil {
			t.Fatal(err)
		}
		if err := b.SetConfigAt(i, cp.Config); err != nil {
			t.Fatal(err)
		}
		if a.Power() != b.Power() || a.InternalPower() != b.InternalPower() || a.OutputPower() != b.OutputPower() {
			t.Fatalf("position %d: evaluated commit (%g, %g, %g) != re-evaluating commit (%g, %g, %g)",
				i, a.Power(), a.InternalPower(), a.OutputPower(), b.Power(), b.InternalPower(), b.OutputPower())
		}
	}
	checkAgainstFull(t, a, pi, prm, "after evaluated commits")
	// Guards: position range and nil config.
	if err := a.SetConfigEvaluated(-1, ConfigPower{}); err == nil {
		t.Error("negative position accepted")
	}
	if err := a.SetConfigEvaluated(0, ConfigPower{}); err == nil {
		t.Error("nil config accepted")
	}
}

// TestSetConfigEvaluatedFallbackRepropagates covers the defensive branch:
// an evaluation whose claimed output statistics (and power) are stale or
// wrong must trigger cone repropagation, leaving the engine in exactly
// the state a from-scratch analysis computes — not the bogus claim.
func TestSetConfigEvaluatedFallbackRepropagates(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 2e5}
	}
	prm := DefaultParams()
	inc, err := NewIncremental(c, pi, prm)
	if err != nil {
		t.Fatal(err)
	}
	var target int
	for i, g := range inc.Order() {
		if len(g.Cell.AllConfigs()) >= 2 {
			target = i
			break
		}
	}
	g := inc.Order()[target]
	in, err := inc.InputsAt(target, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := AnalyzeConfigs(g.Cell, in, inc.LoadAt(target), prm)
	if err != nil {
		t.Fatal(err)
	}
	cp := cands[len(cands)-1]
	// Corrupt the claim: wrong power split and perturbed output stats.
	cp.Power *= 3
	cp.InternalPower *= 3
	cp.Out.D *= 1.5
	base := inc.Recomputed()
	if err := inc.SetConfigEvaluated(target, cp); err != nil {
		t.Fatal(err)
	}
	if inc.Recomputed() == base {
		t.Fatal("perturbed evaluation did not trigger repropagation")
	}
	// The committed configuration is a genuine reordering, so after the
	// fallback the engine must match the from-scratch analysis — the
	// corrupted power and statistics must have been recomputed away.
	checkAgainstFull(t, inc, pi, prm, "after fallback")
}

// TestIncrementalIDFastPaths exercises the dense-ID shims against the
// string API they back.
func TestIncrementalIDFastPaths(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("rca4", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for _, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.5, D: 1e5}
	}
	inc, err := NewIncremental(c, pi, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	snap := inc.Analysis()
	for net, want := range snap.NetStats {
		id, ok := inc.NetID(net)
		if !ok {
			t.Fatalf("net %q has no ID", net)
		}
		got, ok := inc.NetSignalID(id)
		if !ok || got != want {
			t.Fatalf("net %q (id %d): NetSignalID = (%v, %v), want %v", net, id, got, ok, want)
		}
		gotStr, ok := inc.NetSignal(net)
		if !ok || gotStr != want {
			t.Fatalf("net %q: NetSignal shim = (%v, %v), want %v", net, gotStr, ok, want)
		}
	}
	if _, ok := inc.NetID("no-such-net"); ok {
		t.Error("NetID resolved a nonexistent net")
	}
	if _, ok := inc.NetSignalID(-1); ok {
		t.Error("NetSignalID accepted a negative ID")
	}
	if _, ok := inc.NetSignalID(1 << 30); ok {
		t.Error("NetSignalID accepted an out-of-range ID")
	}

	order := inc.Order()
	for i, g := range order {
		if load, ok := inc.Load(g.Name); !ok || load != inc.LoadAt(i) {
			t.Fatalf("instance %s: Load shim (%v, %v) != LoadAt %v", g.Name, load, ok, inc.LoadAt(i))
		}
		in, err := inc.InputsAt(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(in) != len(g.Pins) {
			t.Fatalf("instance %s: InputsAt returned %d signals for %d pins", g.Name, len(in), len(g.Pins))
		}
		for k, p := range g.Pins {
			if want, _ := inc.NetSignal(p); in[k] != want {
				t.Fatalf("instance %s pin %d: InputsAt %v != NetSignal %v", g.Name, k, in[k], want)
			}
		}
	}

	// SetConfigAt must behave exactly like SetConfig on the same position.
	var target int
	for i, g := range order {
		if len(g.Cell.AllConfigs()) >= 2 {
			target = i
			break
		}
	}
	cfgs := order[target].Cell.AllConfigs()
	if err := inc.SetConfigAt(target, cfgs[1]); err != nil {
		t.Fatal(err)
	}
	if order[target].Cell.ConfigKey() != cfgs[1].ConfigKey() {
		t.Error("SetConfigAt did not apply the configuration")
	}
	checkAgainstFull(t, inc, pi, DefaultParams(), "after SetConfigAt")
	if err := inc.SetConfigAt(-1, cfgs[0]); err == nil {
		t.Error("SetConfigAt accepted a negative position")
	}
	if err := inc.SetConfigAt(len(order), cfgs[0]); err == nil {
		t.Error("SetConfigAt accepted an out-of-range position")
	}
}

// analyzerFixture returns a library cell's prototype with distinct pin
// statistics, a load and the default parameters.
func analyzerFixture(tb testing.TB, cell string) (g *gate.Gate, in []stoch.Signal, load float64, prm Params) {
	tb.Helper()
	g = library.Default().MustCell(cell).Proto
	in = make([]stoch.Signal, len(g.Inputs))
	for i := range in {
		in[i] = stoch.Signal{P: 0.2 + 0.13*float64(i), D: 1e5 * float64(i+1)}
	}
	prm = DefaultParams()
	return g, in, prm.OutputLoad(2), prm
}

// TestConfigAnalyzerZeroAlloc pins the optimizer's batched inner loop to
// zero allocations once the analyzer's scratch and the orbit's templates
// are warm, for a gate whose cell is a canonical orbit member (the
// pointer-keyed template front; any committed configuration is one).
func TestConfigAnalyzerZeroAlloc(t *testing.T) {
	proto, in, load, prm := analyzerFixture(t, "aoi221")
	g := proto.AllConfigs()[0]
	var a ConfigAnalyzer
	if _, err := a.AnalyzeConfigs(g, in, load, prm); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := a.AnalyzeConfigs(g, in, load, prm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state AnalyzeConfigs allocates %v times per call", allocs)
	}
}

// TestIncrementalSetConfigZeroAlloc pins the re-evaluation path of a
// reordering commit (SetConfig → propagate → evalGate) to zero
// allocations once the engine's scratch is warm and, as after the
// optimizer's candidate search, the orbit's templates are cached.
func TestIncrementalSetConfigZeroAlloc(t *testing.T) {
	lib := library.Default()
	c, err := mcnc.Load("b9", lib)
	if err != nil {
		t.Fatal(err)
	}
	pi := map[string]stoch.Signal{}
	for i, in := range c.Inputs {
		pi[in] = stoch.Signal{P: 0.3 + 0.04*float64(i%10), D: 1e5 * float64(1+i%3)}
	}
	inc, err := NewIncremental(c, pi, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// The last gate with a reorderable cell: a high topological position
	// also covers the frontier heap past small-integer boxing.
	pos := -1
	for i, g := range inc.Order() {
		if len(g.Cell.AllConfigs()) > 1 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("no reorderable gate in b9")
	}
	name := inc.Order()[pos].Name
	cfgs := inc.Order()[pos].Cell.AllConfigs()
	x, y := cfgs[0], cfgs[1]
	in, err := inc.InputsAt(pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeConfigs(x, in, inc.LoadAt(pos), DefaultParams()); err != nil {
		t.Fatal(err)
	}
	flip := func() {
		if err := inc.SetConfig(name, x); err != nil {
			t.Fatal(err)
		}
		if err := inc.SetConfig(name, y); err != nil {
			t.Fatal(err)
		}
	}
	flip()
	allocs := testing.AllocsPerRun(100, flip)
	if allocs != 0 {
		t.Errorf("SetConfig re-evaluation of %s (position %d of %d) allocates %v times per pair of commits",
			name, pos, len(inc.Order()), allocs)
	}
}

// BenchmarkAnalyzeConfigs times the optimizer's per-gate candidate search:
// one ConfigAnalyzer.AnalyzeConfigs call over a cell's whole orbit, warm
// scratch and templates, gate given as a canonical orbit member.
func BenchmarkAnalyzeConfigs(b *testing.B) {
	for _, cell := range []string{"nand2", "oai21", "aoi221"} {
		b.Run(cell, func(b *testing.B) {
			proto, in, load, prm := analyzerFixture(b, cell)
			g := proto.AllConfigs()[0]
			var a ConfigAnalyzer
			if _, err := a.AnalyzeConfigs(g, in, load, prm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.AnalyzeConfigs(g, in, load, prm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/gate")
			b.ReportMetric(float64(len(g.AllConfigs())), "configs")
		})
	}
}

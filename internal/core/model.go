package core

import (
	"fmt"

	"repro/internal/gate"
	"repro/internal/logic"
	"repro/internal/stoch"
)

// NodeAnalysis is the model's view of one gate node: its capacitance,
// steady-state probability, per-input transition counts and power.
type NodeAnalysis struct {
	Node    gate.NodeID
	Name    string
	Cap     float64   // farads
	P       float64   // equilibrium probability of the node being 1
	TByIn   []float64 // transitions/sec attributable to each input
	T       float64   // total transitions/sec (sum of TByIn)
	Power   float64   // watts
	PH, PG  float64   // P(H_nk), P(G_nk), for diagnostics
	IsOut   bool
	Sources int // transistor terminals on the node (capacitance sources)
}

// GateAnalysis is the full model evaluation of one gate configuration
// under given input statistics.
type GateAnalysis struct {
	Gate          *gate.Gate
	Inputs        []stoch.Signal // per pin, in pin order
	Nodes         []NodeAnalysis // internal nodes first, output node last
	Power         float64        // watts, sum over nodes
	InternalPower float64        // watts dissipated at internal nodes only
	OutputPower   float64        // watts dissipated at the output node
	Out           stoch.Signal   // output statistics to propagate (P(y), D(y))
}

// AnalyzeGate evaluates the extended power model (Sec. 3.3) for one gate
// configuration. loadCap is the external capacitance on the output node
// (fanout gate pins and wire); prm supplies the electrical constants.
func AnalyzeGate(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) (*GateAnalysis, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if len(in) != len(g.Inputs) {
		return nil, fmt.Errorf("core: gate %s has %d inputs, got %d signals", g.Name, len(g.Inputs), len(in))
	}
	if loadCap < 0 {
		return nil, fmt.Errorf("core: negative load capacitance %v", loadCap)
	}
	for i, s := range in {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: gate %s input %s: %w", g.Name, g.Inputs[i], err)
		}
	}
	tmpl, err := templates.get(g)
	if err != nil {
		return nil, err
	}
	w := pinWeights(in, nil)
	a := &GateAnalysis{Gate: g, Inputs: append([]stoch.Signal(nil), in...)}
	halfCV2 := 0.5 * prm.Vdd * prm.Vdd
	for _, tn := range tmpl.nodes {
		ph := tn.h.WeightedProb(w)
		pg := tn.g.WeightedProb(w)
		na := NodeAnalysis{
			Node:    tn.id,
			Name:    tn.name,
			IsOut:   tn.isOut,
			Sources: tn.sources,
			PH:      ph,
			PG:      pg,
			TByIn:   make([]float64, len(in)),
		}
		na.Cap = prm.Cj * float64(na.Sources)
		if na.IsOut {
			na.Cap += loadCap
		}
		if ph+pg > 0 {
			na.P = ph / (ph + pg)
		}
		for i := range in {
			dh := tn.dh[i].WeightedProb(w)
			dg := tn.dg[i].WeightedProb(w)
			t := in[i].D * ((1-na.P)*dh + na.P*dg)
			na.TByIn[i] = t
			na.T += t
		}
		na.Power = halfCV2 * na.Cap * na.T
		a.Power += na.Power
		if na.IsOut {
			a.OutputPower += na.Power
			a.Out = stoch.Signal{P: na.P, D: na.T}
		} else {
			a.InternalPower += na.Power
		}
		a.Nodes = append(a.Nodes, na)
	}
	return a, nil
}

// ConfigPower is the summary evaluation of one candidate configuration:
// the power split of AnalyzeGate without the per-node breakdown, plus the
// output statistics the configuration would propagate (identical for all
// configurations of a cell — the Section 4.2 monotonic property; exposed
// so callers can assert it).
type ConfigPower struct {
	Config        *gate.Gate
	Power         float64 // watts, total
	InternalPower float64 // watts at internal nodes
	OutputPower   float64 // watts at the output node
	Out           stoch.Signal
}

// evalTemplate evaluates the power model for one configuration template
// without allocating: the summary-only counterpart of AnalyzeGate's node
// loop, arithmetic kept operation-for-operation identical so both paths
// produce bit-equal results. w must hold the minterm weights of the pin
// probabilities (pinWeights); the caller builds them once per gate
// evaluation and shares them across candidates.
func evalTemplate(t *template, in []stoch.Signal, w []float64, loadCap float64, prm Params) ConfigPower {
	halfCV2 := 0.5 * prm.Vdd * prm.Vdd
	var cp ConfigPower
	for i := range t.nodes {
		tn := &t.nodes[i]
		ph := tn.h.WeightedProb(w)
		pg := tn.g.WeightedProb(w)
		var p float64
		if ph+pg > 0 {
			p = ph / (ph + pg)
		}
		var total float64
		for k := range in {
			dh := tn.dh[k].WeightedProb(w)
			dg := tn.dg[k].WeightedProb(w)
			total += in[k].D * ((1-p)*dh + p*dg)
		}
		c := prm.Cj * float64(tn.sources)
		if tn.isOut {
			c += loadCap
		}
		power := halfCV2 * c * total
		cp.Power += power
		if tn.isOut {
			cp.OutputPower += power
			cp.Out = stoch.Signal{P: p, D: total}
		} else {
			cp.InternalPower += power
		}
	}
	return cp
}

// pinWeights returns the minterm weights of the pins' probabilities
// in[i].P (logic.MintermWeights), reusing dst. Every model evaluation of
// a gate — all its nodes, their boolean differences and every candidate
// configuration — sums over this one table. The signals must already be
// validated and number at most logic.MaxVars.
func pinWeights(in []stoch.Signal, dst []float64) []float64 {
	var p [logic.MaxVars]float64
	for i, s := range in {
		p[i] = s.P
	}
	return logic.MintermWeights(p[:len(in)], dst)
}

// ConfigAnalyzer amortizes the batch evaluator's scratch (the minterm
// weight table and the result slice) across many calls — one analyzer per
// worker goroutine in the optimizer's hot loop, so a whole optimization
// allocates nothing per gate. Results returned by its methods are valid
// until the next call; copy the ConfigPower values to retain them. The
// zero value is ready to use; it is not safe for concurrent use.
type ConfigAnalyzer struct {
	weights []float64
	out     []ConfigPower
}

// AnalyzeConfigs evaluates every configuration of the gate's cell against
// one input-signal/load vector in a single pass: parameters and signals
// are validated once, the minterm weight table is built once, and the
// whole orbit's templates come from one cached lookup. Results are in
// AllConfigs order (sorted by ConfigKey), so selection over them is
// deterministic. This is the optimizer's batched inner loop.
func (a *ConfigAnalyzer) AnalyzeConfigs(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) ([]ConfigPower, error) {
	if len(in) != len(g.Inputs) {
		return nil, fmt.Errorf("core: gate %s has %d inputs, got %d signals", g.Name, len(g.Inputs), len(in))
	}
	w, err := a.prepare(g, in, loadCap, prm)
	if err != nil {
		return nil, err
	}
	ot, err := templates.getOrbit(g)
	if err != nil {
		return nil, err
	}
	out := a.results(len(ot.cfgs))
	for i, tmpl := range ot.tmpl {
		out[i] = evalTemplate(tmpl, in, w, loadCap, prm)
		out[i].Config = ot.cfgs[i]
	}
	return out, nil
}

// AnalyzeConfigList is AnalyzeConfigs restricted to an explicit candidate
// slice — e.g. one layout orbit for the input-reordering subset mode, or
// the delay-feasible survivors of the delay-neutral mode. Results keep
// the input order.
func (a *ConfigAnalyzer) AnalyzeConfigList(cfgs []*gate.Gate, in []stoch.Signal, loadCap float64, prm Params) ([]ConfigPower, error) {
	w, err := a.prepare(nil, in, loadCap, prm)
	if err != nil {
		return nil, err
	}
	out := a.results(len(cfgs))
	for i, cfg := range cfgs {
		if len(in) != len(cfg.Inputs) {
			return nil, fmt.Errorf("core: gate %s has %d inputs, got %d signals", cfg.Name, len(cfg.Inputs), len(in))
		}
		tmpl, err := templates.get(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = evalTemplate(tmpl, in, w, loadCap, prm)
		out[i].Config = cfg
	}
	return out, nil
}

// prepare validates the shared evaluation inputs and builds the
// analyzer's minterm weight table. g is optional and only names error
// messages.
func (a *ConfigAnalyzer) prepare(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) ([]float64, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	if loadCap < 0 {
		return nil, fmt.Errorf("core: negative load capacitance %v", loadCap)
	}
	if len(in) > logic.MaxVars {
		return nil, fmt.Errorf("core: %d input signals exceed the model's %d-input limit", len(in), logic.MaxVars)
	}
	for i, s := range in {
		if err := s.Validate(); err != nil {
			if g != nil {
				return nil, fmt.Errorf("core: gate %s input %s: %w", g.Name, g.Inputs[i], err)
			}
			return nil, fmt.Errorf("core: input %d: %w", i, err)
		}
	}
	a.weights = pinWeights(in, a.weights)
	return a.weights, nil
}

// results returns the analyzer's result scratch resized to n.
func (a *ConfigAnalyzer) results(n int) []ConfigPower {
	if cap(a.out) < n {
		a.out = make([]ConfigPower, n)
	}
	return a.out[:n]
}

// AnalyzeConfigs is the allocation-per-call convenience form of
// ConfigAnalyzer.AnalyzeConfigs; the returned slice is the caller's own.
func AnalyzeConfigs(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) ([]ConfigPower, error) {
	var a ConfigAnalyzer
	return a.AnalyzeConfigs(g, in, loadCap, prm)
}

// AnalyzeConfigList is the allocation-per-call convenience form of
// ConfigAnalyzer.AnalyzeConfigList; the returned slice is the caller's own.
func AnalyzeConfigList(cfgs []*gate.Gate, in []stoch.Signal, loadCap float64, prm Params) ([]ConfigPower, error) {
	var a ConfigAnalyzer
	return a.AnalyzeConfigList(cfgs, in, loadCap, prm)
}

// OutputStats computes only the output-node statistics (Najm's transition
// density and the Parker–McCluskey probability) without the per-node power
// evaluation — the cheap propagation step used on nets whose driving gate
// is not currently being reordered.
func OutputStats(g *gate.Gate, in []stoch.Signal) (stoch.Signal, error) {
	if len(in) != len(g.Inputs) {
		return stoch.Signal{}, fmt.Errorf("core: gate %s has %d inputs, got %d signals", g.Name, len(g.Inputs), len(in))
	}
	for i, s := range in {
		if err := s.Validate(); err != nil {
			return stoch.Signal{}, fmt.Errorf("core: gate %s input %s: %w", g.Name, g.Inputs[i], err)
		}
	}
	f, err := g.Func()
	if err != nil {
		return stoch.Signal{}, err
	}
	w := pinWeights(in, nil)
	out := stoch.Signal{P: f.WeightedProb(w)}
	for i := range in {
		out.D += f.Diff(i).WeightedProb(w) * in[i].D
	}
	return out, nil
}

// BestConfig evaluates every configuration of the gate under the given
// input statistics and returns the minimum-power one together with its
// analysis. The input statistics are bound to the gate's pins by position:
// reorderings permute transistors, not the pin-to-net binding.
func BestConfig(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) (*GateAnalysis, error) {
	return extremeConfig(g, in, loadCap, prm, func(cand, best float64) bool { return cand < best })
}

// WorstConfig is BestConfig's counterpart used to measure the best-versus-
// worst reduction reported in Table 3.
func WorstConfig(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params) (*GateAnalysis, error) {
	return extremeConfig(g, in, loadCap, prm, func(cand, best float64) bool { return cand > best })
}

func extremeConfig(g *gate.Gate, in []stoch.Signal, loadCap float64, prm Params,
	better func(cand, best float64) bool) (*GateAnalysis, error) {
	var chosen *GateAnalysis
	for _, cfg := range g.AllConfigs() {
		a, err := AnalyzeGate(cfg, in, loadCap, prm)
		if err != nil {
			return nil, err
		}
		if chosen == nil || better(a.Power, chosen.Power) {
			chosen = a
		}
	}
	if chosen == nil {
		return nil, fmt.Errorf("core: gate %s has no configurations", g.Name)
	}
	return chosen, nil
}

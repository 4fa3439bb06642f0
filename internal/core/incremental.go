package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/gate"
	"repro/internal/stoch"
)

// Incremental maintains the power analysis of a circuit under local
// mutation. Where AnalyzeCircuit re-propagates statistics and re-evaluates
// the power model over every gate, an Incremental re-evaluates only the
// fan-out cone of a change — and stops early at the topological frontier
// where statistics settle back to their previous values. Reordering a
// gate's transistors never changes its output function, so its output
// statistics are unchanged and the cone of a SetConfig collapses to the
// gate itself (the Section 4.2 monotonic property); replacing a primary
// input's statistics re-propagates only the nets that actually move.
//
// Internally every net name is interned to a dense integer ID at
// construction and every gate's pin bindings are pre-resolved to those
// IDs, so the hot propagation loop indexes flat slices instead of hashing
// strings. The string-keyed API (NetSignal, SetConfig, …) survives as a
// thin shim over the ID-based fast paths (NetSignalID, SetConfigAt, …).
//
// The engine is what makes the optimizer's inner loop cheap — one gate-model
// evaluation per accepted move instead of a whole-circuit re-analysis — and
// what the sweep harness leans on when it revisits the same circuit under
// many input scenarios.
//
// An Incremental holds a reference to the circuit it was built from and
// mutates that circuit's instances through SetConfig. Mutating methods
// are not safe for concurrent use; concurrent readers (NetSignal, Load,
// InputsAt, …) are safe as long as no mutation is in flight — the
// property the optimizer's read-only parallel phase relies on.
type Incremental struct {
	c   *circuit.Circuit
	prm Params

	order []*circuit.Instance // topological order, fixed at construction
	pos   map[string]int      // instance name → index in order (string shim)

	netID   map[string]int // net name → dense ID (string shim)
	netName []string       // dense ID → net name
	reader  [][]int32      // net ID → positions of the gates reading it
	pins    [][]int32      // position → net IDs of the gate's input pins
	outID   []int32        // position → net ID of the gate's output
	load    []float64      // output load per position

	stats []stoch.Signal // current statistics per net ID
	known []bool         // per net ID: stats have been assigned
	gates []gateState    // per-position power bookkeeping
	tmpl  []*template    // per-position template, resolved lazily, reset on config change
	power float64        // running total, watts
	inter float64        // running internal-node total
	outp  float64        // running output-node total

	frontier   posHeap
	inFrontier []bool

	inBuf     []stoch.Signal // scratch pin signals for evalGate
	weightBuf []float64      // scratch minterm weights for evalGate

	recomputed int // gate-model evaluations since construction (diagnostics)
}

type gateState struct {
	power, intern, outp float64
}

// posHeap is a min-heap of topological positions: the propagation
// frontier. It is typed rather than a container/heap.Interface so that
// pushing and popping a position never boxes it into an interface (an
// allocation for every position past 255).
type posHeap []int

func (h *posHeap) push(x int) {
	s := append(*h, x)
	for j := len(s) - 1; j > 0; {
		up := (j - 1) / 2
		if s[up] <= s[j] {
			break
		}
		s[up], s[j] = s[j], s[up]
		j = up
	}
	*h = s
}

func (h *posHeap) pop() int {
	s := *h
	x := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for j := 0; ; {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[j] <= s[c] {
			break
		}
		s[j], s[c] = s[c], s[j]
		j = c
	}
	*h = s
	return x
}

// NewIncremental analyzes the circuit in full once and returns an engine
// positioned at that state. pi must cover every primary input. The circuit
// must not be structurally modified (nets, pins, instances) while the
// engine is live; configurations must change only through SetConfig.
func NewIncremental(c *circuit.Circuit, pi map[string]stoch.Signal, prm Params) (*Incremental, error) {
	return NewIncrementalParallel(c, pi, prm, 1)
}

// NewIncrementalParallel is NewIncremental with the initial full analysis
// fanned over a wavefront worker pool: gates become ready as their last
// driver finishes, so independent cones evaluate concurrently. Gate
// evaluations write disjoint state and the totals are summed serially in
// topological order afterwards, so the resulting engine state is
// bit-identical to the serial construction for any worker count.
// workers ≤ 1 runs serially; 0 is treated as 1 (use runtime.GOMAXPROCS
// at the call site to saturate the machine).
func NewIncrementalParallel(c *circuit.Circuit, pi map[string]stoch.Signal, prm Params, workers int) (*Incremental, error) {
	return NewIncrementalParallelFunc(c, pi, prm, workers, nil)
}

// NewIncrementalParallelFunc is NewIncrementalParallel with a per-gate
// hook riding the construction wavefront: onGate(inc, i) runs once per
// gate, after the gate at position i has been evaluated and its output
// statistics settled, on the evaluating worker goroutine (inline, in
// topological order, when workers ≤ 1). The optimizer fuses its read-only
// candidate search into the wavefront through it, overlapping the search
// with the initial analysis instead of serializing behind it.
//
// onGate must confine itself to reading engine state at positions whose
// statistics are settled — position i's pins and loads qualify — and must
// be safe to call concurrently for different positions. A non-nil error
// from the hook fails construction; when several gates fail (hook or
// evaluation), the error of the lowest position is returned, matching
// what a serial pass would hit first.
func NewIncrementalParallelFunc(c *circuit.Circuit, pi map[string]stoch.Signal, prm Params, workers int, onGate func(*Incremental, int) error) (*Incremental, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	fanout := c.Fanout()
	inc := &Incremental{
		c:          c,
		prm:        prm,
		order:      order,
		pos:        make(map[string]int, len(order)),
		netID:      make(map[string]int, len(c.Inputs)+len(order)),
		load:       make([]float64, len(order)),
		pins:       make([][]int32, len(order)),
		outID:      make([]int32, len(order)),
		gates:      make([]gateState, len(order)),
		tmpl:       make([]*template, len(order)),
		inFrontier: make([]bool, len(order)),
	}
	intern := func(net string) int32 {
		id, ok := inc.netID[net]
		if !ok {
			id = len(inc.netName)
			inc.netID[net] = id
			inc.netName = append(inc.netName, net)
		}
		return int32(id)
	}
	for _, in := range c.Inputs {
		intern(in)
	}
	for i, g := range order {
		inc.pos[g.Name] = i
		inc.load[i] = prm.OutputLoad(fanout[g.Out])
		inc.outID[i] = intern(g.Out)
		ids := make([]int32, len(g.Pins))
		for k, p := range g.Pins {
			ids[k] = intern(p)
		}
		inc.pins[i] = ids
	}
	inc.stats = make([]stoch.Signal, len(inc.netName))
	inc.known = make([]bool, len(inc.netName))
	inc.reader = make([][]int32, len(inc.netName))
	for i := range order {
		for _, id := range inc.pins[i] {
			inc.reader[id] = append(inc.reader[id], int32(i))
		}
	}
	for _, in := range c.Inputs {
		s, ok := pi[in]
		if !ok {
			return nil, fmt.Errorf("core: missing statistics for input %q", in)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: input %q: %w", in, err)
		}
		id := inc.netID[in]
		inc.stats[id] = s
		inc.known[id] = true
	}
	if err := inc.initialAnalysis(workers, onGate); err != nil {
		return nil, err
	}
	return inc, nil
}

// initialAnalysis evaluates every gate once — serially in topological
// order, or on a wavefront pool — then folds the per-gate results into
// the running totals in position order (the same floating-point addition
// sequence either way). onGate, if non-nil, runs per gate right after its
// evaluation.
func (inc *Incremental) initialAnalysis(workers int, onGate func(*Incremental, int) error) error {
	n := len(inc.order)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var inBuf []stoch.Signal
		var weightBuf []float64
		for i := 0; i < n; i++ {
			if err := inc.evalInit(i, &inBuf, &weightBuf); err != nil {
				return err
			}
			if onGate != nil {
				if err := onGate(inc, i); err != nil {
					return err
				}
			}
		}
	} else {
		// Wavefront schedule: pending[i] counts i's gate-driven pins;
		// a gate enters the ready queue when its last driver completes.
		// Each evaluation writes only its own gates[i] slot and its own
		// output net's stats — disjoint across concurrent gates because
		// every net has exactly one driver.
		pending := make([]int32, n)
		driven := make([]bool, len(inc.netName))
		for i := 0; i < n; i++ {
			driven[inc.outID[i]] = true
		}
		for i := 0; i < n; i++ {
			for _, id := range inc.pins[i] {
				if driven[id] {
					pending[i]++
				}
			}
		}
		ready := make(chan int, n)
		for i := 0; i < n; i++ {
			if pending[i] == 0 {
				ready <- i
			}
		}
		errs := make([]error, n)
		var hookErrs []error
		if onGate != nil {
			hookErrs = make([]error, n)
		}
		remaining := int32(n)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var inBuf []stoch.Signal
				var weightBuf []float64
				for i := range ready {
					errs[i] = inc.evalInit(i, &inBuf, &weightBuf)
					// Unblock downstream gates before running the hook:
					// the search work rides behind the propagation front.
					for _, r := range inc.reader[inc.outID[i]] {
						if atomic.AddInt32(&pending[r], -1) == 0 {
							ready <- int(r)
						}
					}
					if errs[i] == nil && onGate != nil {
						hookErrs[i] = onGate(inc, i)
					}
					if atomic.AddInt32(&remaining, -1) == 0 {
						close(ready)
					}
				}
			}()
		}
		wg.Wait()
		// Report the lowest-position failure: identical to the error the
		// serial pass would hit first (a gate's evaluability depends only
		// on its own pins, never on scheduling).
		for i := range errs {
			if errs[i] != nil {
				return errs[i]
			}
			if hookErrs != nil && hookErrs[i] != nil {
				return hookErrs[i]
			}
		}
	}
	for i := range inc.gates {
		inc.power += inc.gates[i].power
		inc.inter += inc.gates[i].intern
		inc.outp += inc.gates[i].outp
	}
	inc.recomputed += n
	return nil
}

// evalInit is the construction-time gate evaluation: like evalGate but
// with caller-owned scratch (safe for wavefront workers), no delta
// bookkeeping (totals are folded afterwards) and no frontier dirtying
// (the initial pass covers every gate already).
func (inc *Incremental) evalInit(i int, inBuf *[]stoch.Signal, weightBuf *[]float64) error {
	g := inc.order[i]
	ids := inc.pins[i]
	if cap(*inBuf) < len(ids) {
		*inBuf = make([]stoch.Signal, len(ids))
	}
	in := (*inBuf)[:len(ids)]
	for k, id := range ids {
		if !inc.known[id] {
			return fmt.Errorf("core: instance %s reads unannotated net %q", g.Name, inc.netName[id])
		}
		in[k] = inc.stats[id]
	}
	tmpl, err := templates.get(g.Cell)
	if err != nil {
		return fmt.Errorf("core: instance %s: %w", g.Name, err)
	}
	inc.tmpl[i] = tmpl
	*weightBuf = pinWeights(in, *weightBuf)
	a := evalTemplate(tmpl, in, *weightBuf, inc.load[i], inc.prm)
	inc.gates[i] = gateState{power: a.Power, intern: a.InternalPower, outp: a.OutputPower}
	out := inc.outID[i]
	inc.stats[out] = a.Out
	inc.known[out] = true
	return nil
}

// evalGate re-evaluates the gate model at position i against the current
// statistics, applies the power delta, and dirties the output's readers
// if the gate's output statistics changed. It reuses the engine's scratch
// buffers and the summary template evaluator: no allocation on the hot
// path.
func (inc *Incremental) evalGate(i int) error {
	g := inc.order[i]
	ids := inc.pins[i]
	if cap(inc.inBuf) < len(ids) {
		inc.inBuf = make([]stoch.Signal, len(ids))
	}
	in := inc.inBuf[:len(ids)]
	for k, id := range ids {
		if !inc.known[id] {
			return fmt.Errorf("core: instance %s reads unannotated net %q", g.Name, inc.netName[id])
		}
		in[k] = inc.stats[id]
	}
	tmpl := inc.tmpl[i]
	if tmpl == nil {
		var err error
		if tmpl, err = templates.get(g.Cell); err != nil {
			return fmt.Errorf("core: instance %s: %w", g.Name, err)
		}
		inc.tmpl[i] = tmpl
	}
	inc.weightBuf = pinWeights(in, inc.weightBuf)
	a := evalTemplate(tmpl, in, inc.weightBuf, inc.load[i], inc.prm)
	inc.recomputed++
	old := inc.gates[i]
	inc.power += a.Power - old.power
	inc.inter += a.InternalPower - old.intern
	inc.outp += a.OutputPower - old.outp
	inc.gates[i] = gateState{power: a.Power, intern: a.InternalPower, outp: a.OutputPower}
	out := inc.outID[i]
	if !inc.known[out] || inc.stats[out] != a.Out {
		inc.stats[out] = a.Out
		inc.known[out] = true
		inc.dirtyReaders(out)
	}
	return nil
}

// dirtyReaders pushes every gate reading the net onto the frontier.
func (inc *Incremental) dirtyReaders(net int32) {
	for _, r := range inc.reader[net] {
		if !inc.inFrontier[r] {
			inc.inFrontier[r] = true
			inc.frontier.push(int(r))
		}
	}
}

// propagate drains the frontier in topological order. Each gate is
// re-evaluated at most once per call because positions are popped in
// increasing order and a gate's inputs can only be dirtied by gates at
// strictly smaller positions.
func (inc *Incremental) propagate() error {
	for len(inc.frontier) > 0 {
		i := inc.frontier.pop()
		inc.inFrontier[i] = false
		if err := inc.evalGate(i); err != nil {
			return err
		}
	}
	return nil
}

// SetConfig replaces the named instance's cell configuration and
// re-evaluates its fan-out cone. The new configuration must be a
// reordering of the same cell: identical pin names in identical order.
func (inc *Incremental) SetConfig(name string, cfg *gate.Gate) error {
	i, ok := inc.pos[name]
	if !ok {
		return fmt.Errorf("core: no instance %q", name)
	}
	return inc.SetConfigAt(i, cfg)
}

// checkPinBinding verifies cfg exposes the instance cell's pin list in
// the cell's order — the part of the reordering contract both commit
// paths enforce (SetConfigAt additionally re-derives shape equivalence;
// SetConfigEvaluated trusts the caller on shape).
func checkPinBinding(g *circuit.Instance, cfg *gate.Gate) error {
	if len(cfg.Inputs) != len(g.Cell.Inputs) {
		return fmt.Errorf("core: instance %s: config %s has %d inputs, cell %s has %d",
			g.Name, cfg.Name, len(cfg.Inputs), g.Cell.Name, len(g.Cell.Inputs))
	}
	for k := range cfg.Inputs {
		if cfg.Inputs[k] != g.Cell.Inputs[k] {
			return fmt.Errorf("core: instance %s: config pin %d is %q, cell pin is %q",
				g.Name, k, cfg.Inputs[k], g.Cell.Inputs[k])
		}
	}
	return nil
}

// SetConfigAt is SetConfig addressed by topological position (as exposed
// by Order) — the optimizer's commit-phase fast path, which skips the
// name lookup.
func (inc *Incremental) SetConfigAt(i int, cfg *gate.Gate) error {
	if i < 0 || i >= len(inc.order) {
		return fmt.Errorf("core: position %d out of range [0,%d)", i, len(inc.order))
	}
	g := inc.order[i]
	if err := checkPinBinding(g, cfg); err != nil {
		return err
	}
	// Membership in the cell's memoized orbit settles the common case
	// (canonical configurations) without building shape strings.
	if !slices.Contains(g.Cell.AllConfigs(), cfg) && cfg.ShapeKey() != g.Cell.ShapeKey() {
		return fmt.Errorf("core: instance %s: config %s is not a reordering of cell %s",
			g.Name, cfg.Name, g.Cell.Name)
	}
	g.Cell = cfg
	inc.tmpl[i] = nil
	if !inc.inFrontier[i] {
		inc.inFrontier[i] = true
		inc.frontier.push(i)
	}
	return inc.propagate()
}

// SetConfigEvaluated applies a configuration whose model evaluation the
// caller already performed against the engine's *current* statistics and
// load — the optimizer's commit fast path, which books the precomputed
// power delta instead of re-evaluating the gate model. cp must be a
// result of AnalyzeConfigs or AnalyzeConfigList over the state exposed by
// InputsAt(i) and LoadAt(i); the engine verifies the pin binding and that
// the configuration propagates the current output statistics (the
// reordering invariant), falling back to a full cone re-evaluation when
// the latter does not hold. Unlike SetConfig it does not re-derive the
// shape equivalence: the caller vouches that cp.Config is a configuration
// of the instance's cell.
func (inc *Incremental) SetConfigEvaluated(i int, cp ConfigPower) error {
	if i < 0 || i >= len(inc.order) {
		return fmt.Errorf("core: position %d out of range [0,%d)", i, len(inc.order))
	}
	cfg := cp.Config
	if cfg == nil {
		return fmt.Errorf("core: SetConfigEvaluated with nil configuration")
	}
	g := inc.order[i]
	if err := checkPinBinding(g, cfg); err != nil {
		return err
	}
	g.Cell = cfg
	inc.tmpl[i] = nil
	old := inc.gates[i]
	inc.power += cp.Power - old.power
	inc.inter += cp.InternalPower - old.intern
	inc.outp += cp.OutputPower - old.outp
	inc.gates[i] = gateState{power: cp.Power, intern: cp.InternalPower, outp: cp.OutputPower}
	if inc.stats[inc.outID[i]] != cp.Out {
		// The claimed evaluation moves the output statistics: not a pure
		// reordering under the current state (or a stale evaluation).
		// Repropagate the cone from this gate to stay correct.
		if !inc.inFrontier[i] {
			inc.inFrontier[i] = true
			inc.frontier.push(i)
		}
		return inc.propagate()
	}
	return nil
}

// SetInputs replaces the primary-input statistics and re-evaluates only
// the cones of the inputs that actually changed. pi must cover every
// primary input (unchanged entries are cheap: they seed no frontier).
func (inc *Incremental) SetInputs(pi map[string]stoch.Signal) error {
	for _, in := range inc.c.Inputs {
		s, ok := pi[in]
		if !ok {
			return fmt.Errorf("core: missing statistics for input %q", in)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("core: input %q: %w", in, err)
		}
		id := inc.netID[in]
		if inc.stats[id] != s {
			inc.stats[id] = s
			inc.dirtyReaders(int32(id))
		}
	}
	return inc.propagate()
}

// Circuit returns the circuit the engine mutates through SetConfig.
func (inc *Incremental) Circuit() *circuit.Circuit { return inc.c }

// Order returns the engine's topological gate order, computed once at
// construction. Callers must not modify the returned slice.
func (inc *Incremental) Order() []*circuit.Instance { return inc.order }

// Load returns the output-load capacitance of the named instance.
func (inc *Incremental) Load(name string) (float64, bool) {
	i, ok := inc.pos[name]
	if !ok {
		return 0, false
	}
	return inc.load[i], true
}

// LoadAt returns the output-load capacitance of the instance at
// topological position i.
func (inc *Incremental) LoadAt(i int) float64 { return inc.load[i] }

// InputsAt appends the current input-pin statistics of the gate at
// topological position i to buf (in pin order) and returns the extended
// slice — the optimizer's per-gate read path, one slice index per pin.
func (inc *Incremental) InputsAt(i int, buf []stoch.Signal) ([]stoch.Signal, error) {
	g := inc.order[i]
	for _, id := range inc.pins[i] {
		if !inc.known[id] {
			return nil, fmt.Errorf("core: instance %s reads unannotated net %q", g.Name, inc.netName[id])
		}
		buf = append(buf, inc.stats[id])
	}
	return buf, nil
}

// Power returns the current total model power in watts.
func (inc *Incremental) Power() float64 { return inc.power }

// InternalPower returns the current power at internal gate nodes.
func (inc *Incremental) InternalPower() float64 { return inc.inter }

// OutputPower returns the current power at gate output nodes.
func (inc *Incremental) OutputPower() float64 { return inc.outp }

// NetID returns the dense integer ID of a net, for use with NetSignalID.
func (inc *Incremental) NetID(net string) (int, bool) {
	id, ok := inc.netID[net]
	return id, ok
}

// NetSignalID returns the current statistics of the net with the given
// dense ID (from NetID) — the hashing-free fast path behind NetSignal.
func (inc *Incremental) NetSignalID(id int) (stoch.Signal, bool) {
	if id < 0 || id >= len(inc.stats) || !inc.known[id] {
		return stoch.Signal{}, false
	}
	return inc.stats[id], true
}

// NetSignal returns the current statistics of a net.
func (inc *Incremental) NetSignal(net string) (stoch.Signal, bool) {
	id, ok := inc.netID[net]
	if !ok {
		return stoch.Signal{}, false
	}
	return inc.NetSignalID(id)
}

// GatePower returns the current model power of one instance.
func (inc *Incremental) GatePower(name string) (float64, bool) {
	i, ok := inc.pos[name]
	if !ok {
		return 0, false
	}
	return inc.gates[i].power, true
}

// Recomputed returns the number of gate-model evaluations performed since
// construction, including the initial full analysis — the quantity the
// incremental engine exists to minimize.
func (inc *Incremental) Recomputed() int { return inc.recomputed }

// Analysis snapshots the current state as a CircuitAnalysis, matching what
// AnalyzeCircuit would return on the current circuit and statistics (totals
// agree up to floating-point summation order).
func (inc *Incremental) Analysis() *CircuitAnalysis {
	res := &CircuitAnalysis{
		Power:         inc.power,
		InternalPower: inc.inter,
		OutputPower:   inc.outp,
		PerGate:       make(map[string]float64, len(inc.order)),
		NetStats:      make(map[string]stoch.Signal, len(inc.netName)),
	}
	for i, g := range inc.order {
		res.PerGate[g.Name] = inc.gates[i].power
	}
	for id, name := range inc.netName {
		if inc.known[id] {
			res.NetStats[name] = inc.stats[id]
		}
	}
	return res
}

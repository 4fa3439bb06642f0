package stoch

import "fmt"

// MaxLanes is the number of independent Monte Carlo vector streams one
// machine word carries: one per bit.
const MaxLanes = 64

// MaxWords is the widest register block the bit-parallel engines
// evaluate: W machine words per node, structure-of-arrays, so a packed
// stimulus carries up to MaxPackLanes independent lanes. The engines
// have specialized straight-line kernels for W ∈ {1, 4, 8} (64/256/512
// lanes); other widths up to MaxWords run on a generic block loop.
const MaxWords = 8

// MaxPackLanes is the lane capacity of the widest register block.
const MaxPackLanes = MaxWords * MaxLanes

// WordsFor returns the register-block width (words per node) that holds
// the given number of lanes: ceil(lanes/64), without range checking.
func WordsFor(lanes int) int {
	return (lanes + MaxLanes - 1) / MaxLanes
}

// laneMaskWord returns the mask of active lanes in word w of a register
// block of `words` words carrying `lanes` active lanes. It returns 0
// whenever lanes is outside [1, words·64] — exactly the range Validate
// rejects — so a caller that skips Validate meters no phantom lanes on
// an over-range stimulus.
func laneMaskWord(lanes, words, w int) uint64 {
	if lanes < 1 || lanes > words*MaxLanes || w < 0 || w >= words {
		return 0
	}
	rem := lanes - w*MaxLanes
	switch {
	case rem <= 0:
		return 0
	case rem >= MaxLanes:
		return ^uint64(0)
	}
	return uint64(1)<<uint(rem) - 1
}

// PackedStimulus is a bit-packed Monte Carlo stimulus for the compiled
// bit-parallel simulator: up to Words·64 independent input-vector
// sequences, one per bit lane, laid out structure-of-arrays in register
// blocks of Words machine words. Step s of lane l is the state of every
// primary input after the lane's s-th zero-delay settling instant; lanes
// with fewer instants than Steps simply repeat their final state (no
// transitions, no energy). All simultaneous input changes of one instant
// share a step, so a zero-delay circuit sees them atomically — the same
// grouping the event-driven engine applies per timestamp.
//
// Lane l lives in word l/64, bit l%64 of its block. Word w of input i's
// block is Initial[i·W+w] at t=0 and Bits[i][s·W+w] after step s, where
// W = WordWidth().
type PackedStimulus struct {
	Inputs  []string   // primary-input order; Bits and Initial are parallel to it
	Lanes   int        // active lanes, 1..Words·64
	Words   int        // register-block width in words; 0 is treated as 1
	Steps   int        // settling instants in the longest lane
	Horizon float64    // per-lane simulated seconds (power normalization)
	Initial []uint64   // [input·W + w] lane bits at t=0, before any step
	Bits    [][]uint64 // [input][step·W + w] lane bits after the step
}

// WordWidth returns the register-block width W in words (≥ 1).
func (ps *PackedStimulus) WordWidth() int {
	if ps.Words < 1 {
		return 1
	}
	return ps.Words
}

// LaneMask returns the mask selecting the active lanes of word 0. For an
// over-range stimulus (Lanes outside what Validate accepts) it returns 0
// rather than a full word, so skipping Validate cannot meter phantom
// lanes.
func (ps *PackedStimulus) LaneMask() uint64 { return ps.WordMask(0) }

// WordMask returns the mask selecting the active lanes of block word w:
// all-ones for fully occupied words, a partial mask for the last active
// word, 0 for words beyond the active lanes — and 0 for every word when
// Lanes is outside the range Validate accepts.
func (ps *PackedStimulus) WordMask(w int) uint64 {
	return laneMaskWord(ps.Lanes, ps.WordWidth(), w)
}

// Validate checks structural sanity.
func (ps *PackedStimulus) Validate() error {
	w := ps.WordWidth()
	if w > MaxWords {
		return fmt.Errorf("stoch: %d-word register block wider than %d", w, MaxWords)
	}
	if ps.Lanes < 1 || ps.Lanes > w*MaxLanes {
		return fmt.Errorf("stoch: %d lanes out of [1,%d]", ps.Lanes, w*MaxLanes)
	}
	if ps.Horizon <= 0 {
		return fmt.Errorf("stoch: packed horizon %v must be positive", ps.Horizon)
	}
	if len(ps.Initial) != len(ps.Inputs)*w || len(ps.Bits) != len(ps.Inputs) {
		return fmt.Errorf("stoch: packed stimulus shape mismatch: %d inputs × %d words, %d initial, %d bit rows",
			len(ps.Inputs), w, len(ps.Initial), len(ps.Bits))
	}
	for i, row := range ps.Bits {
		if len(row) != ps.Steps*w {
			return fmt.Errorf("stoch: input %q has %d step words, want %d×%d", ps.Inputs[i], len(row), ps.Steps, w)
		}
	}
	return nil
}

// stepToggle records that an input changed during a lane's settling step.
type stepToggle struct {
	step, input int32
}

// PackWaveforms bit-packs per-lane waveform sets into a PackedStimulus:
// lanes[l] maps every input name to that lane's waveform (the shape
// GenerateWaveforms in package sim produces). Up to MaxPackLanes lanes
// pack into a register block of WordsFor(len(lanes)) words. Events beyond
// the horizon are dropped, events at the same instant within a lane
// collapse into one step, and events that do not change the input value
// contribute no step — the packed sequence records exactly the settling
// instants a zero-delay simulation of the same waveforms would see. A
// waveform whose event times are NaN or decreasing is an error.
//
// Each lane's input streams are merged by (time, input); every settling
// step's input changes are recorded as (step, input) toggles, XORed into
// Bits and turned into states by one prefix-XOR pass per input row.
func PackWaveforms(inputs []string, lanes []map[string]*Waveform, horizon float64) (*PackedStimulus, error) {
	if len(lanes) < 1 || len(lanes) > MaxPackLanes {
		return nil, fmt.Errorf("stoch: %d lanes out of [1,%d]", len(lanes), MaxPackLanes)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("stoch: packed horizon %v must be positive", horizon)
	}
	W := WordsFor(len(lanes))
	ps := &PackedStimulus{
		Inputs:  append([]string(nil), inputs...),
		Lanes:   len(lanes),
		Words:   W,
		Horizon: horizon,
		Initial: make([]uint64, len(inputs)*W),
	}
	waves, _, err := resolveLanes(inputs, lanes, ps.Initial, W)
	if err != nil {
		return nil, err
	}
	streams := make([][]Event, len(waves)) // waves' events up to the horizon
	events := 0
	for k, w := range waves {
		streams[k] = eventsUpTo(w.Events, horizon)
		events += len(streams[k])
	}
	var (
		toggles = make([]stepToggle, 0, events) // every lane's toggles, lane after lane: at most one per event
		laneEnd = make([]int, len(lanes))
		state   = make([]bool, len(inputs))
		merge   = streamMerge[Event, float64]{key: eventTime}
	)
	for l := range lanes {
		for i := range state {
			state[i] = waves[l*len(inputs)+i].Initial
		}
		merge.reset(streams[l*len(inputs) : (l+1)*len(inputs)])
		// A step is an instant at which some input changes value. An
		// input that changes twice in one instant toggles twice, and the
		// XOR fill cancels the pair.
		step := int32(0)
		run, i, ok := merge.next()
		for ok {
			t, mark := run[0].Time, len(toggles)
			for ; ok && run[0].Time == t; run, i, ok = merge.next() {
				for _, e := range run {
					if state[i] != e.Value {
						state[i] = e.Value
						toggles = append(toggles, stepToggle{step: step, input: int32(i)})
					}
				}
			}
			if len(toggles) > mark {
				step++
			}
		}
		ps.Steps = max(ps.Steps, int(step))
		laneEnd[l] = len(toggles)
	}
	ps.Bits = make([][]uint64, len(inputs))
	for i := range inputs {
		ps.Bits[i] = make([]uint64, ps.Steps*W)
	}
	start := 0
	for l, end := range laneEnd {
		word, bit := l/MaxLanes, uint64(1)<<uint(l%MaxLanes)
		for _, tg := range toggles[start:end] {
			ps.Bits[tg.input][int(tg.step)*W+word] ^= bit
		}
		start = end
	}
	// Prefix XOR: each step's word becomes the state after that step.
	// Lanes that ran out of steps, or never had one, hold their state.
	for i, row := range ps.Bits {
		var acc [MaxWords]uint64
		copy(acc[:W], ps.Initial[i*W:])
		for s := 0; s < len(row); s += W {
			for w := 0; w < W; w++ {
				acc[w] ^= row[s+w]
				row[s+w] = acc[w]
			}
		}
	}
	return ps, nil
}

// resolveLanes looks up every lane's waveform for every input, returning
// them flat in [lane·len(inputs) + input] order with their total event
// count. It checks each waveform's event order and sets the lanes' bits
// in initial ([input·W + word]).
func resolveLanes(inputs []string, lanes []map[string]*Waveform, initial []uint64, W int) ([]*Waveform, int, error) {
	waves := make([]*Waveform, 0, len(lanes)*len(inputs))
	events := 0
	for l, byInput := range lanes {
		word, bit := l/MaxLanes, uint64(1)<<uint(l%MaxLanes)
		for i, in := range inputs {
			w, ok := byInput[in]
			if !ok {
				return nil, 0, fmt.Errorf("stoch: lane %d has no waveform for input %q", l, in)
			}
			if err := w.checkOrdered(); err != nil {
				return nil, 0, fmt.Errorf("stoch: lane %d input %q: %w", l, in, err)
			}
			if w.Initial {
				initial[i*W+word] |= bit
			}
			waves = append(waves, w)
			events += len(w.Events)
		}
	}
	return waves, events, nil
}

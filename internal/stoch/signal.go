// Package stoch models logic signals as 0-1 stationary Markov processes,
// following Section 3.1 of the paper. A signal is characterized by its
// equilibrium probability P (the probability of observing a 1 at any
// instant, Definition 3.3) and its transition density D (expected signal
// transitions per time unit, Definition 3.4 / Najm's transition density).
//
// The package also generates concrete waveforms realizing given statistics:
// the paper drives its switch-level simulations with input signals whose
// inter-transition times are exponentially distributed with mean 1/D.
package stoch

import (
	"fmt"
	"math"
	"math/rand"
)

// Signal holds the two statistics the power model needs for one net.
type Signal struct {
	P float64 // equilibrium probability, in [0,1]
	D float64 // transition density, transitions per second (or per cycle), ≥ 0
}

// Validate reports whether the statistics are physically meaningful.
// Beyond range checks it enforces the stationarity bound D ≤ 2·min(P,1-P)·Dmax
// only when a maximum update rate is known, which it is not here; the
// basic sanity conditions are P∈[0,1] and D≥0.
func (s Signal) Validate() error {
	if math.IsNaN(s.P) || s.P < 0 || s.P > 1 {
		return fmt.Errorf("stoch: probability %v out of [0,1]", s.P)
	}
	if math.IsNaN(s.D) || s.D < 0 {
		return fmt.Errorf("stoch: transition density %v negative", s.D)
	}
	return nil
}

// String renders the pair compactly, e.g. "P=0.50 D=1.0e+06".
func (s Signal) String() string {
	return fmt.Sprintf("P=%.3f D=%.3g", s.P, s.D)
}

// Event is one transition of a generated waveform.
type Event struct {
	Time  float64 // seconds from waveform start
	Value bool    // value after the transition
}

// Waveform is a piecewise-constant 0-1 signal: an initial value and a
// time-ordered list of transitions.
type Waveform struct {
	Initial bool
	Events  []Event
}

// ValueAt returns the waveform value at time t (events at exactly t are
// considered to have happened).
func (w *Waveform) ValueAt(t float64) bool {
	v := w.Initial
	for _, e := range w.Events {
		if e.Time > t {
			break
		}
		v = e.Value
	}
	return v
}

// NumTransitions returns the number of transitions in [0, horizon].
func (w *Waveform) NumTransitions(horizon float64) int {
	n := 0
	for _, e := range w.Events {
		if e.Time <= horizon {
			n++
		}
	}
	return n
}

// MeasuredDensity returns transitions per second over [0, horizon].
func (w *Waveform) MeasuredDensity(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(w.NumTransitions(horizon)) / horizon
}

// MeasuredProbability returns the fraction of [0, horizon] the waveform
// spends at 1.
func (w *Waveform) MeasuredProbability(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	t := 0.0
	v := w.Initial
	ones := 0.0
	for _, e := range w.Events {
		if e.Time >= horizon {
			break
		}
		if v {
			ones += e.Time - t
		}
		t = e.Time
		v = e.Value
	}
	if v {
		ones += horizon - t
	}
	return ones / horizon
}

// Exponential generates a waveform over [0, horizon] whose inter-transition
// times are exponentially distributed with mean 1/s.D, exactly the input
// process the paper feeds its switch-level simulator ("time intervals
// between two consecutive transitions of input signal k follow an
// exponential distribution with average 1/Dk"). The initial value is 1
// with probability s.P.
//
// To realize an equilibrium probability different from 0.5 while keeping
// exponential gaps, the generator draws, after each transition, whether the
// signal actually toggles: from state 1 it toggles with probability
// proportional to 1-P, from state 0 proportionally to P, scaled so the
// overall transition density remains D. For P = 0.5 this degenerates to a
// pure toggle process.
func (s Signal) Exponential(horizon float64, rng *rand.Rand) (*Waveform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if horizon < 0 {
		return nil, fmt.Errorf("stoch: negative horizon %v", horizon)
	}
	w := &Waveform{Initial: rng.Float64() < s.P}
	if s.D == 0 || horizon == 0 {
		return w, nil
	}
	// Two-state continuous-time Markov chain with exit rates r1 (from 1)
	// and r0 (from 0). Stationary probability of 1 is r0/(r0+r1) and the
	// transition density is 2·r0·r1/(r0+r1). Solving for given (P, D):
	//   r0 = D / (2·(1-P)),   r1 = D / (2·P).
	// Degenerate probabilities pin the signal to a constant.
	if s.P == 0 || s.P == 1 {
		return w, nil
	}
	r0 := s.D / (2 * (1 - s.P))
	r1 := s.D / (2 * s.P)
	t := 0.0
	v := w.Initial
	for {
		rate := r0
		if v {
			rate = r1
		}
		t += rng.ExpFloat64() / rate
		if t > horizon {
			return w, nil
		}
		v = !v
		w.Events = append(w.Events, Event{Time: t, Value: v})
	}
}

// Clocked generates a waveform sampled at a fixed clock of period cycle:
// the scenario-B input process ("latches at its inputs ... probability and
// transition density of the primary inputs set to 0.5 and 0.5 transitions
// per cycle"). Here s.D is interpreted in transitions per cycle. The value
// sequence is a lag-one Markov chain whose marginal is s.P and whose
// expected toggles per cycle is s.D.
func (s Signal) Clocked(cycles int, cycle float64, rng *rand.Rand) (*Waveform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if cycles < 0 || cycle <= 0 {
		return nil, fmt.Errorf("stoch: invalid clocking (%d cycles of %v)", cycles, cycle)
	}
	// Markov chain with transition probabilities chosen so that
	// E[toggles/cycle] = D: from 1 toggle w.p. t1 = D/(2P), from 0 w.p.
	// t0 = D/(2(1-P)). Both must be ≤ 1 for the pair (P,D) to be
	// realizable at this clock.
	var t0, t1 float64
	switch {
	case s.D == 0:
		t0, t1 = 0, 0
	case s.P == 0 || s.P == 1:
		return nil, fmt.Errorf("stoch: cannot realize D=%v with pinned P=%v", s.D, s.P)
	default:
		t0 = s.D / (2 * (1 - s.P))
		t1 = s.D / (2 * s.P)
		if t0 > 1 || t1 > 1 {
			return nil, fmt.Errorf("stoch: (P=%v, D=%v per cycle) not realizable: toggle probability exceeds 1", s.P, s.D)
		}
	}
	w := &Waveform{Initial: rng.Float64() < s.P}
	v := w.Initial
	for c := 1; c <= cycles; c++ {
		tp := t0
		if v {
			tp = t1
		}
		if rng.Float64() < tp {
			v = !v
			w.Events = append(w.Events, Event{Time: float64(c) * cycle, Value: v})
		}
	}
	return w, nil
}

// TaggedEvent is one event of a merged trace, tagged with its input index.
type TaggedEvent struct {
	Time  float64
	Input int
	Value bool
}

// MergeWaveforms combines per-input waveforms into one globally
// time-ordered event trace, tagging each event with its input index.
// Simultaneous events keep their input order, as a stable sort would.
// Each waveform's events must be time-ordered, as Waveform promises.
func MergeWaveforms(ws []*Waveform) []TaggedEvent {
	streams := make([][]Event, len(ws))
	n := 0
	for i, w := range ws {
		streams[i] = w.Events
		n += len(w.Events)
	}
	if n == 0 {
		return nil
	}
	all := make([]TaggedEvent, 0, n)
	merge := streamMerge[Event, float64]{key: eventTime}
	merge.reset(streams)
	for run, i, ok := merge.next(); ok; run, i, ok = merge.next() {
		for _, e := range run {
			all = append(all, TaggedEvent{Time: e.Time, Input: i, Value: e.Value})
		}
	}
	return all
}

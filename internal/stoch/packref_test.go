package stoch

import (
	"fmt"
	"sort"
)

// This file keeps the original sort-based packers as test-only
// references. The production packers merge the already-ordered waveform
// streams instead of sorting them; the property tests in merge_test.go
// pin them to these references with reflect.DeepEqual.

// refPackedEvent is one input change of one lane during reference packing.
type refPackedEvent struct {
	time  float64
	input int
	value bool
}

// refPackWaveforms is the sort-based zero-delay packer: per lane, a stable
// sort of all input events by time, then one []bool snapshot per settling
// instant, then a steps × lanes × inputs bit fill.
func refPackWaveforms(inputs []string, lanes []map[string]*Waveform, horizon float64) (*PackedStimulus, error) {
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
	snapshots := make([][][]bool, len(lanes))
	for l, waves := range lanes {
		state := make([]bool, len(inputs))
		var evs []refPackedEvent
		for i, in := range inputs {
			w, ok := waves[in]
			if !ok {
				return nil, fmt.Errorf("stoch: lane %d has no waveform for input %q", l, in)
			}
			state[i] = w.Initial
			if w.Initial {
				ps.Initial[i*W+l/MaxLanes] |= 1 << uint(l%MaxLanes)
			}
			for _, e := range w.Events {
				if e.Time > horizon {
					break
				}
				evs = append(evs, refPackedEvent{time: e.Time, input: i, value: e.Value})
			}
		}
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].time < evs[b].time })
		for k := 0; k < len(evs); {
			t := evs[k].time
			changed := false
			for ; k < len(evs) && evs[k].time == t; k++ {
				if state[evs[k].input] != evs[k].value {
					state[evs[k].input] = evs[k].value
					changed = true
				}
			}
			if changed {
				snapshots[l] = append(snapshots[l], append([]bool(nil), state...))
			}
		}
	}
	for _, seq := range snapshots {
		if len(seq) > ps.Steps {
			ps.Steps = len(seq)
		}
	}
	ps.Bits = make([][]uint64, len(inputs))
	for i := range inputs {
		ps.Bits[i] = make([]uint64, ps.Steps*W)
	}
	for l, seq := range snapshots {
		word, bit := l/MaxLanes, uint64(1)<<uint(l%MaxLanes)
		for s := 0; s < ps.Steps; s++ {
			var snap []bool
			switch {
			case s < len(seq):
				snap = seq[s]
			case len(seq) > 0:
				snap = seq[len(seq)-1]
			}
			for i := range inputs {
				v := snap != nil && snap[i]
				if snap == nil {
					v = ps.Initial[i*W+word]&bit != 0
				}
				if v {
					ps.Bits[i][s*W+word] |= bit
				}
			}
		}
	}
	return ps, nil
}

// refTimedEvent is one quantized input change of one lane during reference
// packing.
type refTimedEvent struct {
	tick  int64
	input int32
	lane  int
}

// refPackTimedWaveforms is the sort-based timed packer: per lane, a stable
// sort of the quantized input streams by tick, cluster alignment, then one
// global sort by (tick, input, lane).
func refPackTimedWaveforms(inputs []string, lanes []map[string]*Waveform, horizon, tick float64, guard int64) (*TimedStimulus, error) {
	if len(lanes) < 1 || len(lanes) > MaxPackLanes {
		return nil, fmt.Errorf("stoch: %d lanes out of [1,%d]", len(lanes), MaxPackLanes)
	}
	if horizon <= 0 || tick <= 0 {
		return nil, fmt.Errorf("stoch: timed packing needs positive horizon and tick, got %v/%v", horizon, tick)
	}
	if guard < 0 {
		return nil, fmt.Errorf("stoch: negative guard %d", guard)
	}
	W := WordsFor(len(lanes))
	ts := &TimedStimulus{
		Inputs:       append([]string(nil), inputs...),
		Lanes:        len(lanes),
		Words:        W,
		Tick:         tick,
		Horizon:      horizon,
		HorizonTicks: TicksIn(horizon, tick),
		Guard:        guard,
		Initial:      make([]uint64, len(inputs)*W),
	}
	perLane := make([][]timedEvent, len(lanes))
	for l, waves := range lanes {
		for i, in := range inputs {
			w, ok := waves[in]
			if !ok {
				return nil, fmt.Errorf("stoch: lane %d has no waveform for input %q", l, in)
			}
			if w.Initial {
				ts.Initial[i*W+l/MaxLanes] |= 1 << uint(l%MaxLanes)
			}
			for _, te := range QuantizeWaveform(w, tick, ts.HorizonTicks) {
				perLane[l] = append(perLane[l], timedEvent{tick: te.Tick, input: int32(i)})
			}
		}
		sort.SliceStable(perLane[l], func(a, b int) bool { return perLane[l][a].tick < perLane[l][b].tick })
	}
	if guard > 0 {
		alignClusters(perLane, guard)
	}
	var evs []refTimedEvent
	for l, le := range perLane {
		for _, e := range le {
			evs = append(evs, refTimedEvent{tick: e.tick, input: e.input, lane: l})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].tick != evs[b].tick {
			return evs[a].tick < evs[b].tick
		}
		if evs[a].input != evs[b].input {
			return evs[a].input < evs[b].input
		}
		return evs[a].lane < evs[b].lane
	})
	for k := 0; k < len(evs); {
		t := evs[k].tick
		var group []InputToggle
		for k < len(evs) && evs[k].tick == t {
			in := evs[k].input
			for k < len(evs) && evs[k].tick == t && evs[k].input == in {
				word := int32(evs[k].lane / MaxLanes)
				var mask uint64
				for ; k < len(evs) && evs[k].tick == t && evs[k].input == in && int32(evs[k].lane/MaxLanes) == word; k++ {
					mask |= 1 << uint(evs[k].lane%MaxLanes)
				}
				group = append(group, InputToggle{Input: in, Word: word, Lanes: mask})
			}
		}
		ts.Ticks = append(ts.Ticks, t)
		ts.Toggles = append(ts.Toggles, group)
	}
	return ts, nil
}

// refMergeWaveforms is the sort-based MergeWaveforms: a stable sort of the
// concatenated per-input streams by time.
func refMergeWaveforms(ws []*Waveform) []TaggedEvent {
	var all []TaggedEvent
	for i, w := range ws {
		for _, e := range w.Events {
			all = append(all, TaggedEvent{Time: e.Time, Input: i, Value: e.Value})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Time < all[b].Time })
	return all
}

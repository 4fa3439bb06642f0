package stoch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// packCase is one seeded stimulus for the packer property tests.
type packCase struct {
	inputs  []string
	lanes   []map[string]*Waveform
	horizon float64
	tick    float64
}

// drawPackCase draws a stimulus of the given kind:
//   - "exp": exponential gaps, scenario A;
//   - "clocked": latched inputs on one clock, scenario B. Inputs tie on
//     every edge, and the last edge sits exactly at the horizon;
//   - "grid": times on a coarse integer grid, so one input can switch
//     twice in an instant, events can be no-ops, and some land exactly at
//     or beyond the horizon;
//   - "quiet": no events at all.
//
// Every seventh lane has no events, whatever the kind.
func drawPackCase(t testing.TB, kind string, nLanes int, rng *rand.Rand) packCase {
	t.Helper()
	nIn := 1 + rng.Intn(12)
	pc := packCase{inputs: make([]string, nIn), lanes: make([]map[string]*Waveform, nLanes)}
	for i := range pc.inputs {
		pc.inputs[i] = fmt.Sprintf("in%d", i)
	}
	const cycles, cycle = 24, 1e-8
	switch kind {
	case "exp":
		pc.horizon, pc.tick = 1e-4, 1e-6
	case "clocked":
		pc.horizon, pc.tick = cycles*cycle, cycle/4
	case "grid", "quiet":
		pc.horizon, pc.tick = 20, 1
	}
	for l := range pc.lanes {
		waves := make(map[string]*Waveform, nIn)
		for _, in := range pc.inputs {
			var w *Waveform
			var err error
			switch {
			case kind == "quiet" || l%7 == 3:
				w = &Waveform{Initial: rng.Intn(2) == 1}
			case kind == "exp":
				w, err = Signal{P: 0.2 + 0.6*rng.Float64(), D: 2e5 * rng.Float64()}.Exponential(pc.horizon, rng)
			case kind == "clocked":
				w, err = Signal{P: 0.5, D: 0.5}.Clocked(cycles, cycle, rng)
			default:
				w = &Waveform{Initial: rng.Intn(2) == 1}
				for tm := 0.0; tm <= pc.horizon+2; tm += float64(rng.Intn(3)) {
					w.Events = append(w.Events, Event{Time: tm, Value: rng.Intn(2) == 1})
					if len(w.Events) > 40 {
						break
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			waves[in] = w
		}
		pc.lanes[l] = waves
	}
	return pc
}

// TestPackersMatchSortReference pins the merge-based packers to the
// sort-based references byte for byte.
func TestPackersMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, kind := range []string{"exp", "clocked", "grid", "quiet"} {
		for _, nLanes := range []int{1, 64, 65, 256, 512} {
			for rep := 0; rep < 3; rep++ {
				pc := drawPackCase(t, kind, nLanes, rng)
				name := fmt.Sprintf("%s/lanes=%d/rep=%d", kind, nLanes, rep)
				got, err := PackWaveforms(pc.inputs, pc.lanes, pc.horizon)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := refPackWaveforms(pc.inputs, pc.lanes, pc.horizon)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: PackWaveforms differs from the sort reference", name)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, guard := range []int64{0, 3, 17} {
					got, err := PackTimedWaveforms(pc.inputs, pc.lanes, pc.horizon, pc.tick, guard)
					if err != nil {
						t.Fatalf("%s guard %d: %v", name, guard, err)
					}
					want, err := refPackTimedWaveforms(pc.inputs, pc.lanes, pc.horizon, pc.tick, guard)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s guard %d: PackTimedWaveforms differs from the sort reference", name, guard)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s guard %d: %v", name, guard, err)
					}
				}
			}
		}
	}
}

// TestPackersRejectUnorderedWaveforms checks the ordering precondition the
// merges rely on: a NaN or decreasing event time is an error, not a
// silently wrong stimulus.
func TestPackersRejectUnorderedWaveforms(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []Event
		want   string
	}{
		{"decreasing", []Event{{Time: 1, Value: true}, {Time: 3, Value: false}, {Time: 2, Value: true}}, "precedes"},
		{"decreasing beyond horizon", []Event{{Time: 1, Value: true}, {Time: 30, Value: false}, {Time: 20, Value: true}}, "precedes"},
		{"NaN first", []Event{{Time: math.NaN(), Value: true}}, "NaN"},
		{"NaN later", []Event{{Time: 1, Value: true}, {Time: math.NaN(), Value: false}}, "NaN"},
	} {
		lanes := []map[string]*Waveform{
			{"a": {Events: []Event{{Time: 1, Value: true}}}, "b": {}},
			{"a": {}, "b": {Events: tc.events}},
		}
		if _, err := PackWaveforms([]string{"a", "b"}, lanes, 10); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: PackWaveforms error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if _, err := PackTimedWaveforms([]string{"a", "b"}, lanes, 10, 1, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: PackTimedWaveforms error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// Equal times are ordered.
	ok := []map[string]*Waveform{{"a": {Events: []Event{{Time: 1, Value: true}, {Time: 1, Value: false}}}}}
	if _, err := PackWaveforms([]string{"a"}, ok, 10); err != nil {
		t.Errorf("equal times rejected: %v", err)
	}
	if _, err := PackTimedWaveforms([]string{"a"}, ok, 10, 1, 0); err != nil {
		t.Errorf("equal times rejected by the timed packer: %v", err)
	}
}

// TestMergeWaveformsMatchesStableSort checks MergeWaveforms against the
// stable sort on clocked stimulus, where inputs tie on every edge.
func TestMergeWaveformsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for rep := 0; rep < 20; rep++ {
		ws := make([]*Waveform, 1+rng.Intn(16))
		for i := range ws {
			w, err := Signal{P: 0.5, D: 0.5}.Clocked(30, 1e-8, rng)
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		if got, want := MergeWaveforms(ws), refMergeWaveforms(ws); !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: merged trace differs from the stable sort", rep)
		}
	}
	if got := MergeWaveforms([]*Waveform{{}, {Initial: true}}); got != nil {
		t.Errorf("event-free merge = %v, want nil", got)
	}
}

// BenchmarkPack times both packers on drawn stimulus: 16 inputs per lane,
// scenario A (exponential, about 40 events per input) and scenario B
// (clocked, 80 cycles at 0.5 toggles per cycle). Drawing is outside the
// timer; ns/event divides by the events handed to the packer.
func BenchmarkPack(b *testing.B) {
	const nIn, horizonA, cycles, cycle = 16, 1e-4, 80, 1e-8
	inputs := make([]string, nIn)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("in%d", i)
	}
	for _, packer := range []string{"zero", "timed"} {
		for _, sc := range []string{"A", "B"} {
			for _, nLanes := range []int{64, 256, 512} {
				b.Run(fmt.Sprintf("%s/%s/lanes=%d", packer, sc, nLanes), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					lanes := make([]map[string]*Waveform, nLanes)
					events := 0
					for l := range lanes {
						lanes[l] = make(map[string]*Waveform, nIn)
						for _, in := range inputs {
							var w *Waveform
							var err error
							if sc == "A" {
								w, err = Signal{P: 0.5, D: 4e5}.Exponential(horizonA, rng)
							} else {
								w, err = Signal{P: 0.5, D: 0.5}.Clocked(cycles, cycle, rng)
							}
							if err != nil {
								b.Fatal(err)
							}
							events += len(w.Events)
							lanes[l][in] = w
						}
					}
					horizon, tick := horizonA, 1e-9
					if sc == "B" {
						horizon, tick = cycles*cycle, cycle/8
					}
					b.ReportAllocs()
					for b.Loop() {
						var err error
						if packer == "zero" {
							_, err = PackWaveforms(inputs, lanes, horizon)
						} else {
							_, err = PackTimedWaveforms(inputs, lanes, horizon, tick, 16)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
				})
			}
		}
	}
}

package stoch

import (
	"cmp"
	"fmt"
	"math"
)

// Every stream the packers combine is already ordered: a Waveform's
// events by time, a QuantizeWaveform result by tick, a lane's packed
// events by tick. So the combined order comes from a k-way merge, never
// from a sort.

// streamMerge drains k ordered streams in (key, stream index) order, the
// key of an element given by key. Equal keys leave in stream order, so
// draining the merge reproduces a stable sort of the streams'
// concatenation. The merge is a tournament (loser) tree over the stream
// heads: taking the smallest costs one comparison per tree level.
type streamMerge[E any, K cmp.Ordered] struct {
	key     func(E) K
	streams [][]E
	pos     []int          // next element of each stream
	heads   []mergeHead[K] // key of each stream's next element
	tree    []int          // tree[0] is the winner; tree[n], n ≥ 1, the loser at node n
}

// mergeHead is the current head of one stream.
type mergeHead[K cmp.Ordered] struct {
	key  K
	done bool // stream exhausted
}

// reset starts the merge over the given streams, each ordered by key.
func (m *streamMerge[E, K]) reset(streams [][]E) {
	n := len(streams)
	if cap(m.heads) < n {
		m.pos = make([]int, n)
		m.heads = make([]mergeHead[K], n)
		m.tree = make([]int, n)
	}
	m.streams, m.pos, m.heads, m.tree = streams, m.pos[:n], m.heads[:n], m.tree[:n]
	for i, s := range streams {
		m.pos[i] = 0
		m.heads[i] = mergeHead[K]{done: true}
		if len(s) > 0 {
			m.heads[i] = mergeHead[K]{key: m.key(s[0])}
		}
	}
	if n > 0 {
		m.tree[0] = m.play(1)
	}
}

// next returns the stream with the smallest head and that stream's run of
// elements sharing the head's key; ok is false once every stream is
// exhausted. Taking a whole run costs one tree replay, not one per
// element.
func (m *streamMerge[E, K]) next() (run []E, stream int, ok bool) {
	if len(m.heads) == 0 || m.heads[m.tree[0]].done {
		return nil, 0, false
	}
	w := m.tree[0]
	s, k := m.streams[w], m.pos[w]
	j := k + 1
	for ; j < len(s); j++ {
		if key := m.key(s[j]); key != m.heads[w].key {
			m.heads[w].key = key
			break
		}
	}
	m.heads[w].done = j == len(s)
	m.pos[w] = j
	m.replay(w)
	return s[k:j], w, true
}

// play returns the winner of the subtree at node n, recording the loser
// of every match on the way. Node n's children are 2n and 2n+1; node
// k+i is stream i's leaf.
func (m *streamMerge[E, K]) play(n int) int {
	k := len(m.heads)
	if n >= k {
		return n - k
	}
	a, b := m.play(2*n), m.play(2*n+1)
	if m.beats(b, a) == 1 {
		a, b = b, a
	}
	m.tree[n] = b
	return a
}

// beats returns 1 if stream a's head leaves before stream b's, else 0: a
// is live, and b is exhausted or has a larger key, or an equal key and a
// larger index. Which of two streams leaves first is a coin toss a branch
// predictor cannot learn, so beats and replay compute it without
// branches.
func (m *streamMerge[E, K]) beats(a, b int) int {
	ha, hb := m.heads[a], m.heads[b]
	return b2i(!ha.done) & (b2i(hb.done) | b2i(ha.key < hb.key) | b2i(ha.key == hb.key)&b2i(a < b))
}

// b2i converts a bool to 0 or 1; the compiler emits a SETcc, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// replay reruns the matches on stream w's path to the root after its head
// changed.
func (m *streamMerge[E, K]) replay(w int) {
	for n := (len(m.heads) + w) / 2; n > 0; n /= 2 {
		l := m.tree[n]
		swap := (w ^ l) & -m.beats(l, w) // w^l if l wins, else 0
		m.tree[n], w = l^swap, w^swap
	}
	m.tree[0] = w
}

// eventTime is the merge key of waveform events.
func eventTime(e Event) float64 { return e.Time }

// checkOrdered reports an event time that is NaN or earlier than the
// event before it. Waveform promises time order and the packers' merges
// rely on it: a decreasing time would pack silently wrong stimulus, and a
// NaN, equal to nothing, would never close its instant.
func (w *Waveform) checkOrdered() error {
	prev := math.Inf(-1)
	for k, e := range w.Events {
		if e.Time >= prev {
			prev = e.Time
			continue
		}
		if math.IsNaN(e.Time) {
			return fmt.Errorf("stoch: event %d has a NaN time", k)
		}
		return fmt.Errorf("stoch: event %d at %v precedes event %d at %v", k, e.Time, k-1, prev)
	}
	return nil
}

// eventsUpTo returns the prefix of the time-ordered events at or before
// horizon.
func eventsUpTo(evs []Event, horizon float64) []Event {
	n := len(evs)
	for n > 0 && evs[n-1].Time > horizon {
		n--
	}
	return evs[:n]
}

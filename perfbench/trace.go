package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one sweep job share Job;
// Parent is the ID of the enclosing span (-1 for a job's root span).
type span struct {
	ID     int32         `json:"id"`
	Parent int32         `json:"parent"`
	Job    int32         `json:"job"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and costs one nil check per call, so the untraced composition
// runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, job int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: time.Since(t.epoch)})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Layer string  `json:"layer"`
	Calls int64   `json:"calls"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"` // of summed job wall time
}

// rootSpan names the per-job span; its self time is the composition's
// own glue between layer calls.
const rootSpan = "job"

// selfTimes folds spans into per-name self time — a span's duration
// minus the part its child spans cover — and the summed wall time of the
// root spans. Rows are sorted by self time, largest first.
func (t *tracer) selfTimes() (rows []layerRow, jobWall float64) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	for i, s := range t.spans {
		dur := s.End - s.Start
		if s.Parent < 0 {
			jobWall += dur.Seconds()
		}
		k, ok := idx[s.Name]
		if !ok {
			k = len(rows)
			idx[s.Name] = k
			rows = append(rows, layerRow{Layer: s.Name})
		}
		rows[k].Calls++
		rows[k].SelfS += (dur - child[i]).Seconds()
	}
	for i := range rows {
		rows[i].Share = ratio(rows[i].SelfS, jobWall)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	return rows, jobWall
}

// busy returns the summed self time of the named layer.
func busy(rows []layerRow, name string) float64 {
	for _, r := range rows {
		if r.Layer == name {
			return r.SelfS
		}
	}
	return 0
}

// formatTable renders the self-time table.
func formatTable(rows []layerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %7s\n", "layer", "calls", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %10.4f %6.1f%%\n", r.Layer, r.Calls, r.SelfS, 100*r.Share)
	}
	return b.String()
}

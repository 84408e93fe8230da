package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Parent 0 marks a root (one per op).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced phase in memory; write dumps them at
// exit. A nil *tracer is the untraced phase: every method is a no-op, so
// workloads call it unconditionally.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so children recorded before their parent ends
// can name it.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a leaf span under parent and returns its id.
func (t *tracer) child(parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.add(id, parent, name, start, end)
	return id
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the parts its child spans cover
}

func (l layerTime) totalMs() float64 { return float64(l.Total) / 1e6 }
func (l layerTime) selfMs() float64  { return float64(l.Self) / 1e6 }
func (l layerTime) meanMs() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.totalMs() / float64(l.Count)
}

// byName aggregates the spans per name, computing self time as a span's
// duration minus the union of its children's intervals clipped to it.
func (t *tracer) byName() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		l := out[s.Name]
		l.Count++
		l.Total += time.Duration(s.End - s.Start)
		l.Self += time.Duration(s.End-s.Start) - covered(s, kids[s.ID])
		out[s.Name] = l
	}
	return out
}

// covered returns how much of p's interval the union of cs covers.
func covered(p span, cs []span) time.Duration {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total, reach int64 = 0, p.Start
	for _, c := range cs {
		lo, hi := max(c.Start, reach), min(c.End, p.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return time.Duration(total)
}

// printSelfTimes writes, per span name, the span count and the mean total
// and self time of one span.
func printSelfTimes(w io.Writer, layers map[string]layerTime) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %10s %14s %14s\n", "span", "count", "mean ms", "mean self ms")
	for _, n := range names {
		l := layers[n]
		c := float64(l.Count)
		fmt.Fprintf(w, "%-22s %10d %14.4f %14.4f\n", n, l.Count, l.totalMs()/c, l.selfMs()/c)
	}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

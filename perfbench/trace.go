package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Name is
// "<layer>.<operation>"; Parent is 0 for a root span; Job ties together
// the spans of one request or solve.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Job    string        `json:"job,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Layer is the part of the span name before the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced runs pay one nil check per call site.
type Recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []Span
	lastID int64
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// NewID reserves a span ID, so a span's children can name their
// parent before the parent span ends.
func (r *Recorder) NewID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastID++
	return r.lastID
}

// Add records a finished span and returns its ID (0 on a nil Recorder).
func (r *Recorder) Add(name, job string, parent int64, start, end time.Time) int64 {
	id := r.NewID()
	r.AddID(id, name, job, parent, start, end)
	return id
}

// AddID records a finished span under an ID from NewID.
func (r *Recorder) AddID(id int64, name, job string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
}

// Link parents every root span whose name has an entry in parentOf: its
// parent becomes the latest-starting span of that name, of the same
// job, that starts no later than it does. Spans with no such span stay
// roots.
func (r *Recorder) Link(parentOf map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	type key struct{ job, name string }
	byKey := map[key][]Span{}
	for _, s := range r.spans {
		if s.Job != "" {
			byKey[key{s.Job, s.Name}] = append(byKey[key{s.Job, s.Name}], s)
		}
	}
	for i, s := range r.spans {
		pn, ok := parentOf[s.Name]
		if !ok || s.Parent != 0 || s.Job == "" {
			continue
		}
		var best *Span
		for j, p := range byKey[key{s.Job, pn}] {
			if p.Start <= s.Start && (best == nil || p.Start > best.Start) {
				best = &byKey[key{s.Job, pn}][j]
			}
		}
		if best != nil {
			r.spans[i].Parent = best.ID
		}
	}
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile stores the spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of its interval that its children
// cover (overlapping children count once; parts of a child outside its
// parent do not count).
func selfTimes(spans []Span) map[string]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer()] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

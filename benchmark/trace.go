package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-owned interval: a call into a layer through a
// public seam, or a phase reconstructed from a RoundRecord. Times are
// seconds since the tracer's origin.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"` // index into the trace, -1 for the root
	Round  int     `json:"round"`  // 0 when not tied to a round
	Client int     `json:"client"` // -1 when not tied to a client
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

// add records a finished span whose parent is not known yet; buildTree
// assigns it by containment once the round phases exist.
func (t *tracer) add(name string, start, end float64, round, client int) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: -1, Round: round, Client: client})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// adopt gives every span in loose the smallest span of tree that contains
// its midpoint as parent (the root when nothing closer does) and returns
// tree followed by the adopted spans. tree[0] must be the root.
func adopt(tree, loose []span) []span {
	out := append([]span(nil), tree...)
	for _, s := range loose {
		mid := (s.Start + s.End) / 2
		best := 0
		for i, p := range tree {
			if p.Start <= mid && mid <= p.End && p.dur() <= tree[best].dur() {
				best = i
			}
		}
		s.Parent = best
		out = append(out, s)
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover. Overlapping children (parallel clients)
// are counted once.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// wallShares splits the root's wall-clock among span names: every instant
// belongs to the spans active at it that have no active child, in equal
// parts when several run in parallel. The root's own part is what no
// layer span accounts for. The shares add up to the root's duration.
func wallShares(spans []span) map[string]float64 {
	if len(spans) == 0 {
		return nil
	}
	root := spans[0]
	cuts := make([]float64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, clamp(s.Start, root.Start, root.End), clamp(s.End, root.Start, root.End))
	}
	sort.Float64s(cuts)
	shares := map[string]float64{}
	hasChild := make([]bool, len(spans))
	var active []int
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		if hi <= lo {
			continue
		}
		active = active[:0]
		for i, s := range spans {
			if s.Start <= lo && hi <= s.End {
				active = append(active, i)
				hasChild[i] = false
			}
		}
		for _, i := range active {
			if p := spans[i].Parent; p >= 0 {
				hasChild[p] = true
			}
		}
		leaves := 0
		for _, i := range active {
			if !hasChild[i] {
				leaves++
			}
		}
		for _, i := range active {
			if !hasChild[i] {
				shares[spans[i].Name] += (hi - lo) / float64(leaves)
			}
		}
	}
	return shares
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// writeTrace writes one JSON object per span.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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

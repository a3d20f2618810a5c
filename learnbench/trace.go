package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanRec is one finished span as the recorder keeps it.
type spanRec struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	Dur    int64     `json:"dur_ns"`
	Worker int       `json:"worker"`
	Round  uint64    `json:"round,omitempty"`
}

// recorder is the benchmark's in-memory span sink: it keeps every
// finished span and writes them out when the run ends, so the traced run
// does no I/O while it is timed.
type recorder struct {
	mu    sync.Mutex
	spans []spanRec
}

func (r *recorder) SpanStart(*obs.Span) {}

func (r *recorder) SpanEnd(s *obs.Span, d time.Duration) {
	rec := spanRec{ID: s.ID, Parent: s.ParentID, Name: s.Name, Start: s.Start, Dur: int64(d), Worker: s.Worker, Round: s.Round}
	r.mu.Lock()
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
}

// writeJSONL writes the env header and one span per line to path.
func (r *recorder) writeJSONL(path string, env hostEnv) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// node is one unit of self-time accounting: a span on the learning
// goroutine, or one pooled round — the shard spans of one worker-pool
// drain, counted once by their envelope (first start to last end) so that
// shards running side by side are not charged twice.
type node struct {
	name       string
	start, end int64
	children   []*node
}

// selfTimes returns each span kind's self time: its nodes' durations
// minus the part of each node's interval its children cover. Self times
// over a tree add up to its root's duration, so over a traced pass they
// add up to the pass's learn wall time.
func selfTimes(spans []spanRec) map[string]time.Duration {
	byID := make(map[uint64]*node, len(spans))
	rounds := make(map[[2]uint64]*node)
	parentOf := make(map[*node]uint64, len(spans))
	var all []*node
	for _, s := range spans {
		st := s.Start.UnixNano()
		en := st + s.Dur
		if s.Round != 0 {
			key := [2]uint64{s.Parent, s.Round}
			if r := rounds[key]; r != nil {
				r.start, r.end = min(r.start, st), max(r.end, en)
				byID[s.ID] = r
				continue
			}
			r := &node{name: s.Name, start: st, end: en}
			rounds[key] = r
			byID[s.ID] = r
			parentOf[r] = s.Parent
			all = append(all, r)
			continue
		}
		n := &node{name: s.Name, start: st, end: en}
		byID[s.ID] = n
		parentOf[n] = s.Parent
		all = append(all, n)
	}
	for _, n := range all {
		if p := byID[parentOf[n]]; p != nil && p != n {
			p.children = append(p.children, n)
		}
	}
	self := make(map[string]time.Duration)
	for _, n := range all {
		self[n.name] += time.Duration(n.end - n.start - covered(n))
	}
	return self
}

// covered is the length of the union of n's children's intervals,
// clipped to n's own interval.
func covered(n *node) int64 {
	if len(n.children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(n.children))
	for _, c := range n.children {
		s, e := max(c.start, n.start), min(c.end, n.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var tot, curS, curE int64
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			tot += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return tot + curE - curS
}

// spanTotals sums durations and counts calls per span kind.
func spanTotals(spans []spanRec) (dur map[string]time.Duration, calls map[string]int) {
	dur, calls = make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		dur[s.Name] += time.Duration(s.Dur)
		calls[s.Name]++
	}
	return dur, calls
}

// layerOf maps a span kind to the layer metric its self time feeds.
// Coverage shards do the probes: θ-subsumption matching in subsumption
// mode, relstore query evaluation in direct mode.
func layerOf(kind string, subsumption bool) string {
	switch {
	case strings.HasPrefix(kind, "shard_"):
		if subsumption {
			return "subsume.probe.self_s"
		}
		return "relstore.probe.self_s"
	case kind == "coverage_batch" || kind == "score_batch":
		return "coverage.batch.self_s"
	case kind == "minimize":
		return "subsume.minimize.self_s"
	case kind == "bottom_clause":
		return "castor.bottom_clause.self_s"
	case kind == "beam_round":
		return "castor.beam_round.self_s"
	case kind == "negative_reduction":
		return "castor.negative_reduction.self_s"
	case kind == benchSpan || kind == "learn" || kind == "covering_iteration":
		return "ilp.covering.self_s"
	}
	return "other.self_s"
}

// benchSpan is the benchmark's own span around each Learn call; the
// learner's spans nest under it, so its self time is the part of the
// call outside the learner's "learn" span (validation, tester set-up).
const benchSpan = "bench_learn"

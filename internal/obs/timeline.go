package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// The timeline is the run's one sampling ticker. Each tick takes a
// resource sample (see sampleResources) and turns the registry's
// point-in-time snapshot into bounded history: counter *deltas* (rate,
// not total), every gauge, and the p50/p99 of every named histogram go
// into per-series fixed-size rings, and every counter that moved is also
// written to the flight recorder as a delta record, so a dump shows which
// counters were moving (and how fast) in its final window. Memory is
// hard-bounded — rings never grow and the series table is capped — so the
// timeline can stay on for a whole multi-hour learn and still answer
// "when did the workers go idle" at the end, live over GET /timeline or
// post-hoc from the -timeline JSONL dump. A nil *Timeline is a valid nop,
// preserving the zero-cost unobserved path.

// Timeline defaults: ring length per series, series-table cap, tick.
const (
	DefaultTimelineCap    = 512
	DefaultTimelineSeries = 256
	DefaultTimelineTick   = 250 * time.Millisecond
)

// TimelinePoint is one sample of one series.
type TimelinePoint struct {
	// UnixMs is the sample time in Unix milliseconds.
	UnixMs int64 `json:"t"`
	// V is the sampled value: a per-tick delta for counter series, the
	// current value for gauge series, seconds for histogram percentiles.
	V float64 `json:"v"`
}

// tlSeries is one ring plus whole-run summary accumulators (the summary
// covers every tick, not just the points still in the ring window).
type tlSeries struct {
	ring []TimelinePoint
	head int // next write position
	n    int // filled entries, ≤ len(ring)
	// whole-run accumulators
	count               int64
	sum, min, max, last float64
}

func (s *tlSeries) add(p TimelinePoint) {
	s.ring[s.head] = p
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	if s.count == 0 || p.V < s.min {
		s.min = p.V
	}
	if s.count == 0 || p.V > s.max {
		s.max = p.V
	}
	s.count++
	s.sum += p.V
	s.last = p.V
}

// points returns the ring contents oldest-first, filtered by sinceMs
// (points strictly before sinceMs are dropped; 0 keeps everything).
func (s *tlSeries) points(sinceMs int64) []TimelinePoint {
	out := make([]TimelinePoint, 0, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < s.n; i++ {
		p := s.ring[(start+i)%len(s.ring)]
		if p.UnixMs >= sinceMs {
			out = append(out, p)
		}
	}
	return out
}

// Timeline samples a run's registry on a fixed tick into per-series
// rings. Start with StartTimeline; Stop takes a final sample and shuts
// the ticker down. All methods are nil-safe.
type Timeline struct {
	reg      *Registry
	fr       *FlightRecorder
	interval time.Duration
	ringCap  int
	maxSer   int

	mu           sync.Mutex
	series       map[string]*tlSeries
	dropped      int64 // series refused by the maxSer cap
	lastCounters [numCounters]int64
	ticks        int64
	start        time.Time

	stop chan struct{}
	done chan struct{}
}

// StartTimeline begins sampling reg every interval (≤ 0 picks
// DefaultTimelineTick) and returns the running timeline; resource samples
// and counter deltas also go into fr when it is non-nil. It returns nil —
// and samples nothing — for a nil registry, keeping the unobserved path
// free. An immediate first tick runs before the goroutine starts, and Stop
// adds a final one, so even the shortest observed run yields two samples
// of every live series.
func StartTimeline(reg *Registry, fr *FlightRecorder, interval time.Duration) *Timeline {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultTimelineTick
	}
	t := &Timeline{
		reg: reg, fr: fr, interval: interval,
		ringCap: DefaultTimelineCap, maxSer: DefaultTimelineSeries,
		series: make(map[string]*tlSeries),
		start:  time.Now(),
		stop:   make(chan struct{}), done: make(chan struct{}),
	}
	t.tick()
	go t.loop()
	return t
}

// Stop takes a final sample and shuts the timeline down. Safe to call on
// nil and idempotent-unsafe (call once).
func (t *Timeline) Stop() {
	if t == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.tick()
}

func (t *Timeline) loop() {
	defer close(t.done)
	tk := time.NewTicker(t.interval)
	defer tk.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tk.C:
			t.tick()
		}
	}
}

// tick runs one sampling pass: a fresh resource+runtime sample, then one
// registry snapshot decomposed into series points and counter-delta
// flight records.
func (t *Timeline) tick() {
	sampleResources(t.reg, t.fr) // refresh gauges and the runtime/metrics histograms first
	rep := t.reg.Snapshot()
	now := time.Now().UnixMilli()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticks++
	for c := Counter(0); c < numCounters; c++ {
		v, last := rep.Counters[c.String()], t.lastCounters[c]
		if v == 0 && last == 0 {
			continue // series appear once a counter first moves
		}
		d := v - last
		t.lastCounters[c] = v
		t.record(c.String(), TimelinePoint{UnixMs: now, V: float64(d)})
		if t.fr != nil && d != 0 {
			t.fr.Record(FKCounter, c.String(), d, v)
		}
	}
	for name, v := range rep.Gauges {
		t.record(name, TimelinePoint{UnixMs: now, V: v})
	}
	for name, h := range rep.Histograms {
		if h.Count == 0 {
			continue
		}
		t.record("hist_"+name+"_p50", TimelinePoint{UnixMs: now, V: h.P50})
		t.record("hist_"+name+"_p99", TimelinePoint{UnixMs: now, V: h.P99})
	}
}

// record appends one point, creating the series unless the table is at
// its cap (then the point is counted dropped — never silently).
func (t *Timeline) record(name string, p TimelinePoint) {
	s := t.series[name]
	if s == nil {
		if len(t.series) >= t.maxSer {
			t.dropped++
			return
		}
		s = &tlSeries{ring: make([]TimelinePoint, t.ringCap)}
		t.series[name] = s
	}
	s.add(p)
}

// TimelineMeta describes a timeline capture: cadence, capacity, and how
// much it actually saw.
type TimelineMeta struct {
	IntervalMs    int64     `json:"interval_ms"`
	RingCap       int       `json:"ring_cap"`
	Ticks         int64     `json:"ticks"`
	Series        int       `json:"series"`
	DroppedSeries int64     `json:"dropped_series"`
	Start         time.Time `json:"start"`
}

// TimelineDump is the GET /timeline response shape.
type TimelineDump struct {
	Meta   TimelineMeta               `json:"meta"`
	Series map[string][]TimelinePoint `json:"series"`
}

// Dump snapshots the timeline. filter, when non-nil, keeps only the named
// series; sinceMs drops points before that Unix-millisecond time. Nil-safe:
// a nil timeline dumps an empty capture.
func (t *Timeline) Dump(filter map[string]bool, sinceMs int64) TimelineDump {
	out := TimelineDump{Series: map[string][]TimelinePoint{}}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out.Meta = TimelineMeta{
		IntervalMs: t.interval.Milliseconds(), RingCap: t.ringCap,
		Ticks: t.ticks, Series: len(t.series), DroppedSeries: t.dropped,
		Start: t.start,
	}
	for name, s := range t.series {
		if filter != nil && !filter[name] {
			continue
		}
		if pts := s.points(sinceMs); len(pts) > 0 {
			out.Series[name] = pts
		}
	}
	return out
}

// WriteJSONL writes the capture as JSON Lines: one timeline_meta record,
// then one point record per sample, series sorted by name, points oldest
// first. The stream shape survives truncation — every prefix ending on a
// newline parses — which is what a crash dump needs. Nil-safe.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	d := t.Dump(nil, 0)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := struct {
		Kind string `json:"kind"`
		TimelineMeta
	}{Kind: "timeline_meta", TimelineMeta: d.Meta}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	names := make([]string, 0, len(d.Series))
	for n := range d.Series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, p := range d.Series[n] {
			rec := struct {
				Kind   string  `json:"kind"`
				Series string  `json:"series"`
				UnixMs int64   `json:"t"`
				V      float64 `json:"v"`
			}{Kind: "point", Series: n, UnixMs: p.UnixMs, V: p.V}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// TimelineSeriesStat is one series' whole-run summary in a run report.
type TimelineSeriesStat struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Last  float64 `json:"last"`
}

// TimelineSummary is the run-report digest of a timeline: per-series
// whole-run statistics (every tick, including points the rings have
// already evicted), so obsreport can gate on utilization over time, not
// just the final snapshot.
type TimelineSummary struct {
	IntervalMs    int64                         `json:"interval_ms"`
	Ticks         int64                         `json:"ticks"`
	DroppedSeries int64                         `json:"dropped_series,omitempty"`
	Series        map[string]TimelineSeriesStat `json:"series,omitempty"`
}

// Summary digests the timeline for a run report. Nil returns nil, so
// unobserved runs add no report field.
func (t *Timeline) Summary() *TimelineSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &TimelineSummary{
		IntervalMs: t.interval.Milliseconds(), Ticks: t.ticks,
		DroppedSeries: t.dropped,
		Series:        make(map[string]TimelineSeriesStat, len(t.series)),
	}
	for name, s := range t.series {
		if s.count == 0 {
			continue
		}
		out.Series[name] = TimelineSeriesStat{
			Count: s.count, Mean: s.sum / float64(s.count),
			Min: s.min, Max: s.max, Last: s.last,
		}
	}
	return out
}

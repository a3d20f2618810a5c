package obs

import (
	"bufio"
	"io"
	"os"
	"strconv"
	"sync"
	"time"
)

// ChromeTraceSink writes spans (and, when also registered as a Tracer,
// instant events) in the Chrome trace-event JSON format, loadable by
// Perfetto (ui.perfetto.dev) and chrome://tracing — what -trace writes
// for a .json path. Spans become complete ("ph":"X") slices with their fields as
// args; trace events become instants ("ph":"i"). Spans on the run's
// owning goroutine render on tid 1, where slices nest by time exactly as
// the span tree nests; pool-worker shard spans render on tid 2+worker, so
// a pooled round appears as parallel slices across worker tracks. Slice
// args carry span_id, parent, and — for worker spans — worker and round,
// so the span graph survives the export (chrometrace_golden_test.go pins
// this schema).
type ChromeTraceSink struct {
	mu   sync.Mutex
	w    *bufio.Writer
	c    io.Closer // non-nil when the sink owns the file
	base time.Time // ts origin; Chrome wants microseconds from an epoch
	n    int       // events written, for comma placement
	err  error     // first write error, sticky
	done bool
}

// NewChromeTraceSink wraps a writer. Call Close before reading what was
// written: the JSON envelope is only complete then.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	s := &ChromeTraceSink{w: bufio.NewWriter(w), base: time.Now()}
	s.write([]byte(`{"displayTimeUnit":"ms","traceEvents":[`))
	return s
}

// CreateChromeTraceFile creates (truncating) a trace file and returns a
// sink that owns it; Close completes the JSON and closes the file.
func CreateChromeTraceFile(path string) (*ChromeTraceSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewChromeTraceSink(f)
	s.c = f
	return s, nil
}

// write appends raw bytes, latching the first error.
func (s *ChromeTraceSink) write(b []byte) {
	if _, err := s.w.Write(b); err != nil && s.err == nil {
		s.err = err
	}
}

// event emits one trace-event object. fields become the args payload.
func (s *ChromeTraceSink) event(name, ph string, ts time.Time, dur time.Duration, tid uint64, sp *Span, fields []Field) {
	buf := make([]byte, 0, 192)
	buf = append(buf, `{"name":`...)
	buf = appendJSONValue(buf, name)
	buf = append(buf, `,"ph":"`...)
	buf = append(buf, ph...)
	buf = append(buf, `","ts":`...)
	buf = strconv.AppendInt(buf, ts.Sub(s.base).Microseconds(), 10)
	if ph == "X" {
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendInt(buf, dur.Microseconds(), 10)
	}
	if ph == "i" {
		buf = append(buf, `,"s":"t"`...)
	}
	buf = append(buf, `,"pid":1,"tid":`...)
	buf = strconv.AppendUint(buf, tid, 10)
	if sp != nil || len(fields) > 0 {
		buf = append(buf, `,"args":{`...)
		first := true
		arg := func(key string) {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, '"')
			buf = append(buf, key...)
			buf = append(buf, '"', ':')
		}
		if sp != nil {
			arg("span_id")
			buf = strconv.AppendUint(buf, sp.ID, 10)
			if sp.ParentID != 0 {
				arg("parent")
				buf = strconv.AppendUint(buf, sp.ParentID, 10)
			}
			if sp.Worker >= 0 {
				arg("worker")
				buf = strconv.AppendInt(buf, int64(sp.Worker), 10)
			}
			if sp.Round != 0 {
				arg("round")
				buf = strconv.AppendUint(buf, sp.Round, 10)
			}
		}
		for _, f := range fields {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = appendJSONValue(buf, f.Key)
			buf = append(buf, ':')
			buf = appendJSONValue(buf, f.Value)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, '}')

	s.mu.Lock()
	if !s.done {
		if s.n > 0 {
			s.write([]byte{','})
		}
		s.n++
		s.write(buf)
	}
	s.mu.Unlock()
}

// SpanStart implements SpanSink; the slice is written whole at SpanEnd,
// so starts need no output.
func (s *ChromeTraceSink) SpanStart(*Span) {}

// SpanEnd implements SpanSink: one complete slice per finished span, on
// the owning goroutine's track (tid 1) or the span's worker track.
func (s *ChromeTraceSink) SpanEnd(sp *Span, d time.Duration) {
	tid := uint64(1)
	if sp.Worker >= 0 {
		tid = uint64(2 + sp.Worker)
	}
	s.event(sp.Name, "X", sp.Start, d, tid, sp, sp.Fields)
}

// Emit implements Tracer: flat trace events render as instant markers on
// the main track, so covering.accepted and friends line up with the span
// slices around them.
func (s *ChromeTraceSink) Emit(e Event) {
	s.event(e.Name, "i", e.Time, 0, 1, nil, e.Fields)
}

// Close completes the JSON envelope, flushes and, when the sink owns its
// file, closes it. The first write error wins.
func (s *ChromeTraceSink) Close() error {
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.write([]byte("]}\n"))
		if err := s.w.Flush(); err != nil && s.err == nil {
			s.err = err
		}
	}
	err := s.err
	s.mu.Unlock()
	if s.c != nil {
		if cerr := s.c.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.c = nil
	}
	return err
}

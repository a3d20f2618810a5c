package obs

import (
	"fmt"
	"strings"
	"time"
)

// SlowdownSink is a test-only SpanSink that injects a fixed sleep at the
// start of every span of the configured kinds. CI uses it (via the
// SIRL_TEST_SLOWDOWN env hook of the Session) to verify the attribution
// pipeline end-to-end: slow one phase synthetically, diff the two run
// reports with obsreport -attrib, and assert the injected phase ranks
// first. Sleeping in SpanStart — after the span's Start stamp is taken —
// inflates that span's duration and therefore its kind's self time, while
// leaving the search itself untouched (the learner never reads the
// clock to make decisions).
type SlowdownSink struct {
	delays map[string]time.Duration
}

// ParseSlowdown parses a "kind=duration[,kind=duration...]" spec, e.g.
// "negative_reduction=250ms" or "beam_round=5ms,minimize=1ms". An empty
// spec returns nil (no sink), so env-var wiring stays unconditional.
func ParseSlowdown(spec string) (*SlowdownSink, error) {
	if spec == "" {
		return nil, nil
	}
	delays := map[string]time.Duration{}
	for _, part := range strings.Split(spec, ",") {
		kind, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || kind == "" {
			return nil, fmt.Errorf("slowdown spec %q: want kind=duration", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("slowdown spec %q: bad duration: %v", part, err)
		}
		delays[kind] = d
	}
	return &SlowdownSink{delays: delays}, nil
}

// SpanStart sleeps when the span's kind is configured.
func (s *SlowdownSink) SpanStart(sp *Span) {
	if d := s.delays[sp.Name]; d > 0 {
		time.Sleep(d)
	}
}

// SpanEnd implements SpanSink.
func (s *SlowdownSink) SpanEnd(*Span, time.Duration) {}

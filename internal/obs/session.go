package obs

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// A Session is the observability stack of one binary invocation (cmd/castor
// runs one learn under it, cmd/experiments a whole table): the registry,
// the always-on flight ring with its SIGQUIT, watchdog, panic and run-end
// dumps, the span sinks (trace file included), the one timeline tick, the HTTP server
// and the profiles. Both binaries map their flags onto Config and hand
// Run() to the learners; Close shuts everything down in order and fills
// the run report.

// Config holds the observability and profiling flags of the binaries, one
// field per flag. The zero value observes into the registry and flight
// ring only.
type Config struct {
	TracePath  string // -trace: Chrome trace-event file if it ends in .json, JSONL span trace otherwise
	ReportPath string // -report

	HTTPAddr string        // -http
	HTTPIdle time.Duration // -http-idle

	FlightPath    string        // -flightrecorder; dumps go to stderr when empty
	WatchdogStall time.Duration // -watchdog-stall
	TimelinePath  string        // -timeline
	TimelineTick  time.Duration // -timeline-tick

	CPUProfile string // -cpuprofile
	MemProfile string // -memprofile

	ProvenancePath     string // -provenance
	ProvenanceMaxNodes int64  // -provenance-max-nodes
	ProvenanceSample   int64  // -provenance-sample

	Seed int64 // -seed, recorded in the report's env
}

// Session owns one invocation's observability stack; see Open.
type Session struct {
	cfg    Config
	out    io.Writer
	reg    *Registry
	flight *FlightRecorder
	run    *Run
	trace  io.Closer // *JSONLSink or *ChromeTraceSink
	graph  *GraphSink
	prov   *Prov
	tl     *Timeline
	wd     *Watchdog
	srv    *Server
	sigq   chan os.Signal
	cpu    *os.File
}

// Open starts the stack cfg asks for. out receives the binary's own status
// lines (the server address, the summary table). On error everything
// already started is released again.
func Open(cfg Config, out io.Writer) (*Session, error) {
	s := &Session{cfg: cfg, out: out, reg: NewRegistry(), flight: NewFlightRecorder(0)}
	if err := s.start(); err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

// start brings the stack up piece by piece; Open releases it on error.
func (s *Session) start() (err error) {
	cfg := s.cfg
	if cfg.CPUProfile != "" {
		if s.cpu, err = os.Create(cfg.CPUProfile); err != nil {
			return err
		}
		if err = pprof.StartCPUProfile(s.cpu); err != nil {
			s.cpu.Close()
			s.cpu = nil
			return err
		}
	}
	s.flight.SetDumpPath(cfg.FlightPath)
	s.sigq = make(chan os.Signal, 1)
	signal.Notify(s.sigq, syscall.SIGQUIT)
	go func() {
		// SIGQUIT dumps the ring and keeps running (like a JVM thread
		// dump), so an operator can probe a live learn repeatedly.
		for range s.sigq {
			s.flight.DumpNow("sigquit") //nolint:errcheck // best-effort operator dump
		}
	}()

	sinks := []SpanSink{s.flight}
	if cfg.TracePath != "" {
		// Either trace sink records every span, so the span graph is
		// reconstructable offline from the trace file alone.
		var sink interface {
			SpanSink
			io.Closer
		}
		if strings.HasSuffix(cfg.TracePath, ".json") {
			sink, err = CreateChromeTraceFile(cfg.TracePath)
		} else {
			sink, err = CreateJSONLFile(cfg.TracePath)
		}
		if err != nil {
			return err
		}
		s.trace = sink
		sinks = append(sinks, sink)
	}
	var prog *Progress
	if cfg.HTTPAddr != "" {
		prog = NewProgress(s.reg)
		sinks = append(sinks, prog)
	}
	if cfg.ReportPath != "" || cfg.HTTPAddr != "" {
		// The span graph feeds the report's attribution table and /critpath.
		s.graph = NewGraphSink(0)
		sinks = append(sinks, s.graph)
	}
	if spec := os.Getenv("SIRL_TEST_SLOWDOWN"); spec != "" {
		// Test hook: inject a synthetic sleep into the named span kinds
		// (kind=duration,...), so CI can verify obsreport -attrib ranks a
		// known slowdown first. Never affects what is learned — only time.
		slow, err := ParseSlowdown(spec)
		if err != nil {
			return fmt.Errorf("SIRL_TEST_SLOWDOWN: %w", err)
		}
		sinks = append(sinks, slow)
	}
	if cfg.ProvenancePath != "" {
		opts := ProvOptions{MaxNodes: cfg.ProvenanceMaxNodes, SampleEvery: cfg.ProvenanceSample}
		if s.prov, err = CreateProvenanceFile(cfg.ProvenancePath, opts); err != nil {
			return err
		}
	}
	s.run = NewRun(MultiSpanSink(sinks...), s.reg).WithProvenance(s.prov)

	if cfg.TimelinePath != "" || cfg.HTTPAddr != "" || cfg.ReportPath != "" || cfg.FlightPath != "" {
		// The one sampling tick: resource gauges, counter-delta flight
		// records and the timeline rings, for every output that shows them.
		s.tl = StartTimeline(s.reg, s.flight, cfg.TimelineTick)
	}
	if cfg.HTTPAddr != "" {
		if s.srv, err = StartServer(cfg.HTTPAddr, s.reg, prog, s.flight, s.tl, s.graph); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "introspection server on http://%s/ (/metrics /progress /timeline /critpath /debug/flightrecorder /debug/pprof/)\n", s.srv.Addr())
	}
	s.wd = StartWatchdog(s.run, s.flight, cfg.WatchdogStall, s.stalled)
	return nil
}

// stalled is the watchdog hook: log the live span stack, dump the ring.
func (s *Session) stalled(si StallInfo) {
	fmt.Fprintf(os.Stderr, "watchdog: no heartbeat progress for %s (trip %d); live spans:\n",
		si.Stalled.Round(time.Millisecond), si.Trips)
	if len(si.Spans) == 0 {
		fmt.Fprintln(os.Stderr, "  (no open spans)")
	}
	for _, sp := range si.Spans {
		fmt.Fprintf(os.Stderr, "  %s (open %.2fs, id %d)\n", sp.Name, sp.ElapsedSeconds, sp.ID)
	}
	s.flight.DumpNow("watchdog") //nolint:errcheck // best-effort stall dump
}

// Run returns the instrumented run the learners report into.
func (s *Session) Run() *Run { return s.run }

// DumpOnPanic, deferred around a learn, dumps the flight ring on a panic
// and lets the panic unwind on.
func (s *Session) DumpOnPanic() {
	if r := recover(); r != nil {
		s.flight.DumpNow("panic") //nolint:errcheck // best-effort crash dump
		panic(r)
	}
}

// Close ends the session: it closes the trace and provenance files, takes
// the final timeline tick, fills rr's When, Env, Metrics, Timeline and
// Attrib and writes it to -report, prints the summary table under -trace,
// writes the heap profile, idles for -http-idle, dumps the flight ring to
// -flightrecorder and stops every goroutine the session started.
// rr is nil for a failed run: nothing is reported then. The first error
// wins; the session is released either way.
func (s *Session) Close(rr *RunReport) error {
	defer s.release()
	if s.trace != nil {
		err := s.trace.Close()
		s.trace = nil
		if err != nil {
			return err
		}
	}
	err := s.prov.Close()
	s.prov = nil
	if err != nil {
		return fmt.Errorf("writing provenance: %w", err)
	}
	s.tl.Stop() // final tick; rings stay servable through -http-idle
	tl := s.tl
	s.tl = nil
	if s.cfg.TimelinePath != "" {
		if err := writeFile(s.cfg.TimelinePath, tl.WriteJSONL); err != nil {
			return fmt.Errorf("writing timeline: %w", err)
		}
	}
	if rr != nil {
		rr.When = time.Now()
		rr.Env = CaptureEnv(s.cfg.Seed)
		rr.Metrics = s.reg.Snapshot()
		rr.Timeline = tl.Summary()
		if s.graph != nil {
			rr.Attrib = Attribute(s.graph.Graph())
		}
		if s.cfg.ReportPath != "" {
			if err := rr.WriteJSONFile(s.cfg.ReportPath); err != nil {
				return err
			}
		}
		if s.cfg.TracePath != "" {
			fmt.Fprintf(s.out, "\nrun metrics:\n")
			rr.Metrics.WriteSummary(s.out)
		}
	}
	if s.cfg.MemProfile != "" {
		err := writeFile(s.cfg.MemProfile, func(w io.Writer) error {
			runtime.GC() // materialize up-to-date heap statistics
			return pprof.WriteHeapProfile(w)
		})
		if err != nil {
			return err
		}
	}
	if s.srv != nil && s.cfg.HTTPIdle > 0 {
		fmt.Fprintf(s.out, "idling %s for introspection (SIGQUIT or /debug/flightrecorder to dump)\n", s.cfg.HTTPIdle)
		time.Sleep(s.cfg.HTTPIdle)
	}
	if s.cfg.FlightPath != "" {
		// End-of-run dump: the file always holds the final window (earlier
		// watchdog/sigquit marks are still in the ring, so nothing is lost
		// by the rewrite).
		if err := s.flight.DumpNow("run_end"); err != nil {
			return fmt.Errorf("writing flight recorder dump: %w", err)
		}
	}
	return nil
}

// release stops whatever is still running, ignoring errors: the server,
// watchdog, timeline, SIGQUIT handler and CPU profile, and any file not
// yet closed. Safe on a partly opened session.
func (s *Session) release() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.wd.Stop()
	s.tl.Stop()
	if s.sigq != nil {
		signal.Stop(s.sigq)
		close(s.sigq)
	}
	if s.trace != nil {
		s.trace.Close()
	}
	s.prov.Close()
	if s.cpu != nil {
		pprof.StopCPUProfile()
		s.cpu.Close()
	}
}

// Package cliflags provides the shared observability command-line
// surface of the dmfb tools. Every binary under cmd/ registers the
// same four flags:
//
//	-trace=<file>    structured JSONL trace (see telemetry package doc)
//	-metrics=<file>  JSON metrics snapshot written on exit
//	-profile=<dir>   CPU + heap pprof profiles written on exit
//	-ops=<addr>      live ops HTTP server (/metrics /healthz /progress
//	                 /debug/pprof) on addr; ":0" picks a free port and
//	                 the resolved URL is printed to stderr
//
// Usage:
//
//	cfg := cliflags.Register()
//	flag.Parse()
//	ts, err := cfg.Start("dmfb-place")
//	if err != nil { ... }
//	defer ts.Close()
//
// All Session fields are nil-safe: when a flag is absent the
// corresponding sink is nil and instrumented code pays only a nil
// check. -ops implies a metrics registry even without -metrics, so
// the live /metrics endpoint is never empty.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"dmfb/internal/obs"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// Config holds the parsed flag values.
type Config struct {
	TracePath   string
	MetricsPath string
	ProfileDir  string
	OpsAddr     string
}

// Register installs -trace, -metrics, -profile and -ops on the
// default flag set. Call before flag.Parse.
func Register() *Config {
	return RegisterOn(flag.CommandLine)
}

// RegisterOn installs the observability flags on an explicit flag set.
func RegisterOn(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.StringVar(&c.TracePath, "trace", "", "write a structured JSONL trace to `file`")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write a JSON metrics snapshot to `file` on exit")
	fs.StringVar(&c.ProfileDir, "profile", "", "write cpu.pprof and heap.pprof to `dir` on exit")
	fs.StringVar(&c.OpsAddr, "ops", "", "serve live /metrics, /healthz, /progress and /debug/pprof on `addr` (\":0\" picks a free port)")
	return c
}

// SearchFlags installs the shared multi-start annealing group on the
// default flag set: -starts (independent annealing starts, best
// result wins) and -anneal-workers (concurrency cap). Every tool that
// anneals placements registers the same two flags, so the search
// surface reads identically across dmfb-place, dmfb-fti and
// dmfb-bench. The base seed stays the tool's own -seed flag. Call
// before flag.Parse; assign the result to PlacerOptions.Search.
func SearchFlags() *place.SearchOptions {
	return SearchFlagsOn(flag.CommandLine)
}

// SearchFlagsOn installs the multi-start search flags on an explicit
// flag set.
func SearchFlagsOn(fs *flag.FlagSet) *place.SearchOptions {
	s := &place.SearchOptions{}
	fs.IntVar(&s.Starts, "starts", 1,
		"run `n` independent annealing starts with derived seeds and keep the best result (deterministic at any worker count)")
	fs.IntVar(&s.Workers, "anneal-workers", 0,
		"cap concurrent annealing starts at `n` (0 = one per CPU; affects wall-clock only, never results)")
	return s
}

// Main is the shared entry point of the dmfb CLIs: it registers the
// observability flags, parses the command line (tool-specific flags
// must be declared before the call), starts the telemetry session and
// runs the tool body, closing the session afterwards. The returned
// code is run's — a session-close error is reported on stderr but
// does not override a successful run, matching the tools' historic
// behaviour. Use as:
//
//	func main() { os.Exit(cliflags.Main("dmfb-place", run)) }
func Main(tool string, run func(ts *Session) int) int {
	cfg := Register()
	flag.Parse()
	ts, err := cfg.Start(tool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		return 1
	}
	code := run(ts)
	if err := ts.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
	return code
}

// Session is the live observability state of one tool invocation.
type Session struct {
	// Tracer is scoped under the root "tool.run" span: everything the
	// tool emits through it nests there.
	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry

	tool        string
	root        telemetry.Span
	traceFile   *os.File
	metricsPath string
	profiler    *telemetry.Profiler
	ops         *obs.Server
}

// Start opens the sinks requested by the parsed flags. It returns a
// Session whose Tracer/Metrics are nil when the corresponding flag was
// not given; Start with no flags set returns a fully inert Session,
// so callers never need to branch. On success the root "tool.run" span
// is open and Session.Tracer is scoped under it (so stage spans and
// stage-nested library spans form a tree), and the ops server — when
// requested — is already listening. The tool hands Tracer and Metrics
// to the layers it calls; nothing reaches them any other way.
func (c *Config) Start(tool string) (*Session, error) {
	s := &Session{tool: tool, metricsPath: c.MetricsPath}
	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return nil, fmt.Errorf("telemetry: open trace file: %w", err)
		}
		s.traceFile = f
		s.Tracer = telemetry.New(f)
	}
	if c.MetricsPath != "" || c.OpsAddr != "" {
		s.Metrics = telemetry.NewRegistry()
	}
	if c.ProfileDir != "" {
		p, err := telemetry.StartProfiles(c.ProfileDir)
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		s.profiler = p
	}
	if c.OpsAddr != "" {
		srv, err := obs.Serve(obs.Options{Addr: c.OpsAddr, Tool: tool, Metrics: s.Metrics})
		if err != nil {
			if s.profiler != nil {
				_ = s.profiler.Stop()
			}
			_ = s.closeFiles()
			return nil, err
		}
		s.ops = srv
		fmt.Fprintf(os.Stderr, "%s: ops listening on %s\n", tool, srv.URL())
	}
	s.Tracer.Event("tool.start", telemetry.Fields{"tool": tool})
	s.root = s.Tracer.Start("tool.run")
	s.Tracer = s.Tracer.Under(s.root.ID())
	return s, nil
}

// Fail reports err on stderr prefixed with the tool name and returns
// exit code 1 — the uniform error epilogue of the CLI run functions.
func (s *Session) Fail(err error) int {
	tool := "dmfb"
	if s != nil && s.tool != "" {
		tool = s.tool
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	return 1
}

// Usage reports err on stderr prefixed with the tool name and returns
// exit code 2, the tools' convention for bad invocations.
func (s *Session) Usage(err error) int {
	s.Fail(err)
	return 2
}

// Ops returns the live ops server, or nil when -ops was not given.
func (s *Session) Ops() *obs.Server {
	if s == nil {
		return nil
	}
	return s.ops
}

// SetProgress installs the /progress payload source on the ops
// server. Nil-safe no-op when -ops was not given.
func (s *Session) SetProgress(fn func() any) {
	if s == nil {
		return
	}
	s.ops.SetProgress(fn)
}

// Flush persists the observability state collected so far without
// ending the session: the metrics snapshot is (re)written to the
// -metrics file and the trace file is synced to disk. Safe to call
// from a signal handler before os.Exit, repeatedly, and on a nil or
// inert Session.
func (s *Session) Flush() error {
	if s == nil {
		return nil
	}
	var first error
	if s.Metrics != nil && s.metricsPath != "" {
		if err := s.writeMetrics(); err != nil {
			first = err
		}
	}
	if s.traceFile != nil {
		if err := s.traceFile.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FlushOnSignal arranges for the process to Flush and os.Exit(code)
// on the first delivery of any of the given signals. Tools whose main
// loop does not watch a context use it to make ^C preserve partial
// traces; tools that cancel gracefully on the first signal install it
// after cancellation so a second ^C still flushes before dying.
func (s *Session) FlushOnSignal(code int, sigs ...os.Signal) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sigs...)
	go func() {
		<-ch
		s.Flush()
		os.Exit(code)
	}()
}

// Close ends the root span, shuts down the ops server, flushes the
// metrics snapshot, stops the profiler and closes the trace file. It
// reports the first error encountered (including any deferred
// trace-write error) and is safe to call on a nil or inert Session.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	s.root.End(nil)
	var first error
	if s.ops != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := s.ops.Close(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
		s.ops = nil
	}
	if s.Metrics != nil && s.metricsPath != "" {
		if err := s.writeMetrics(); err != nil && first == nil {
			first = err
		}
	}
	if s.profiler != nil {
		if err := s.profiler.Stop(); err != nil && first == nil {
			first = err
		}
	}
	if s.Tracer != nil {
		if err := s.Tracer.Err(); err != nil && first == nil {
			first = fmt.Errorf("telemetry: trace write: %w", err)
		}
	}
	if err := s.closeFiles(); err != nil && first == nil {
		first = err
	}
	return first
}

// writeMetrics renders the registry snapshot, augmented with span
// duration summaries when a tracer is active, to the -metrics file.
func (s *Session) writeMetrics() error {
	f, err := os.Create(s.metricsPath)
	if err != nil {
		return fmt.Errorf("telemetry: open metrics file: %w", err)
	}
	defer f.Close()
	snap := s.Metrics.Snapshot()
	if s.Tracer != nil {
		snap.Spans = s.Tracer.Summaries()
	}
	if err := snap.WriteJSON(f); err != nil {
		return fmt.Errorf("telemetry: write metrics: %w", err)
	}
	return f.Close()
}

func (s *Session) closeFiles() error {
	if s.traceFile == nil {
		return nil
	}
	err := s.traceFile.Close()
	s.traceFile = nil
	return err
}

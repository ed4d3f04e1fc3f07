// dmfb-server serves the synthesis pipeline over HTTP: POST
// /v1/compile places an assay (with a content-addressed placement
// cache, so repeated requests skip the annealer), POST /v1/simulate
// additionally runs the chip simulator with fault injections, and GET
// /v1/jobs/{id} tracks async requests. The ops endpoints (/metrics,
// /healthz, /progress, /debug/pprof) are served from the same
// listener. SIGINT/SIGTERM drains in-flight requests before exiting.
//
// Usage:
//
//	dmfb-server -addr :8080
//	dmfb-server -addr 127.0.0.1:0 -workers 4 -queue 16
//
//	curl -s localhost:8080/v1/compile -d '{"assay":"pcr","seed":1}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmfb/internal/server"
	"dmfb/internal/telemetry/cliflags"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "TCP listen `address` (port 0 picks a free port)")
		workers = flag.Int("workers", 0, "concurrent pipeline runs (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "waiting requests beyond -workers before 429 (0 = default, negative = none)")
		cacheMB = flag.Int("cache-mb", 64, "placement cache budget in MiB")
		drainT  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	)
	os.Exit(cliflags.Main("dmfb-server", func(ts *cliflags.Session) int {
		srv := server.New(server.Options{
			Workers:    *workers,
			QueueDepth: *queue,
			CacheBytes: *cacheMB << 20,
			Metrics:    ts.Metrics,
			Tracer:     ts.Tracer,
		})

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return ts.Fail(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		errc := make(chan error, 1)
		go func() { errc <- hs.Serve(ln) }()
		fmt.Fprintf(os.Stderr, "dmfb-server: listening on http://%s\n", ln.Addr())

		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		select {
		case err := <-errc:
			return ts.Fail(err)
		case <-ctx.Done():
		}
		stop() // a second signal kills the process the default way
		fmt.Fprintln(os.Stderr, "dmfb-server: draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintln(os.Stderr, "dmfb-server: drain:", err)
		}
		if err := hs.Shutdown(dctx); err != nil {
			return ts.Fail(err)
		}
		return 0
	}))
}

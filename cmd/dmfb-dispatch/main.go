// dmfb-dispatch is the distributed campaign service's control plane:
// a dispatcher daemon that queues campaign definitions and leases
// chunked trial ranges to dmfb-simd workers, plus the submit/status
// client. Because every trial derives its RNG stream from the
// campaign seed and trial index alone, the dispatcher's merged
// summary is byte-identical to a single-process dmfb-campaign run at
// any worker count.
//
// Usage:
//
//	dmfb-dispatch serve -addr :9400 -state /var/lib/dmfb
//	dmfb-dispatch submit -to http://host:9400 -mode assay -k 1 -trials 512 -seed 5
//	dmfb-dispatch status -to http://host:9400 [id]
//	dmfb-dispatch wait -to http://host:9400 -summary out.json id
//
// The observability flags (-trace, -metrics, -profile, -ops) go
// before the subcommand: dmfb-dispatch -ops :0 serve ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmfb/internal/dispatch"
	"dmfb/internal/telemetry/cliflags"
)

const usageText = `usage: dmfb-dispatch [obs flags] <command> [flags]

commands:
  serve    run the dispatcher daemon
  submit   enqueue a campaign on a running dispatcher
  status   show one campaign (or all, with no id)
  wait     poll until a campaign finishes; optionally save its summary

run 'dmfb-dispatch <command> -h' for the command's flags`

func main() {
	os.Exit(cliflags.Main("dmfb-dispatch", run))
}

func run(ts *cliflags.Session) int {
	args := flag.Args()
	if len(args) == 0 {
		return ts.Usage(errors.New(usageText))
	}
	switch args[0] {
	case "serve":
		return runServe(ts, args[1:])
	case "submit":
		return runSubmit(ts, args[1:])
	case "status":
		return runStatus(ts, args[1:])
	case "wait":
		return runWait(ts, args[1:])
	default:
		return ts.Usage(fmt.Errorf("unknown command %q\n%s", args[0], usageText))
	}
}

func runServe(ts *cliflags.Session, args []string) int {
	fs := flag.NewFlagSet("dmfb-dispatch serve", flag.ContinueOnError)
	var (
		addr  = fs.String("addr", "127.0.0.1:9400", "TCP listen `address` (port 0 picks a free port)")
		state = fs.String("state", "", "durable state `dir` (campaign specs + result logs); empty keeps state in memory")
		chunk = fs.Int("chunk", dispatch.DefaultChunk, "trials per lease")
		ttl   = fs.Duration("lease-ttl", dispatch.DefaultLeaseTTL, "lease lifetime without a heartbeat")
		maxC  = fs.Int("max-campaigns", dispatch.DefaultMaxCampaigns, "unfinished campaigns before submissions get 429")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, err := dispatch.New(dispatch.Options{
		StateDir:     *state,
		Chunk:        *chunk,
		LeaseTTL:     *ttl,
		MaxCampaigns: *maxC,
		Metrics:      ts.Metrics,
	})
	if err != nil {
		return ts.Fail(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dmfb-dispatch:", err)
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return ts.Fail(err)
	}
	hs := &http.Server{Handler: d.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dmfb-dispatch: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return ts.Fail(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	fmt.Fprintln(os.Stderr, "dmfb-dispatch: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return ts.Fail(err)
	}
	return 0
}

func runSubmit(ts *cliflags.Session, args []string) int {
	fs := flag.NewFlagSet("dmfb-dispatch submit", flag.ContinueOnError)
	to := fs.String("to", "http://127.0.0.1:9400", "dispatcher base `URL`")
	spec := dispatch.SpecFlags(fs, 200, true)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := spec()
	if err != nil {
		return ts.Usage(err)
	}
	client := dispatch.NewClient(*to, nil)
	resp, err := client.Submit(context.Background(), sp)
	if err != nil {
		return ts.Fail(err)
	}
	fmt.Printf("submitted %s (%s, %d trials)\n", resp.ID, resp.Name, resp.Trials)
	return 0
}

// printStatus renders one campaign the way status and wait report it.
func printStatus(st dispatch.StatusResponse) {
	fmt.Printf("%s  %-18s %-8s %d/%d trials  survived %d  errors %d\n",
		st.ID, st.Name, st.State, st.Done, st.Trials, st.Survived, st.Errors)
	if st.Failure != "" {
		fmt.Printf("  failure: %s\n", st.Failure)
	}
}

func runStatus(ts *cliflags.Session, args []string) int {
	fs := flag.NewFlagSet("dmfb-dispatch status", flag.ContinueOnError)
	to := fs.String("to", "http://127.0.0.1:9400", "dispatcher base `URL`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	client := dispatch.NewClient(*to, nil)
	ctx := context.Background()
	if fs.NArg() > 0 {
		st, err := client.Status(ctx, fs.Arg(0))
		if err != nil {
			return ts.Fail(err)
		}
		printStatus(st)
		return 0
	}
	all, err := client.List(ctx)
	if err != nil {
		return ts.Fail(err)
	}
	if len(all) == 0 {
		fmt.Println("no campaigns")
		return 0
	}
	for _, st := range all {
		printStatus(st)
	}
	return 0
}

func runWait(ts *cliflags.Session, args []string) int {
	fs := flag.NewFlagSet("dmfb-dispatch wait", flag.ContinueOnError)
	var (
		to      = fs.String("to", "http://127.0.0.1:9400", "dispatcher base `URL`")
		poll    = fs.Duration("poll", 250*time.Millisecond, "status poll interval")
		timeout = fs.Duration("timeout", 0, "give up after this long (0 = wait forever)")
		sumOut  = fs.String("summary", "", "write the deterministic summary JSON to `file` once done")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return ts.Usage(errors.New("usage: dmfb-dispatch wait [flags] <campaign-id>"))
	}
	id := fs.Arg(0)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	client := dispatch.NewClient(*to, nil)
	st, err := client.Wait(ctx, id, *poll)
	if err != nil {
		return ts.Fail(err)
	}
	printStatus(st)
	if st.State == "failed" {
		return 1
	}
	if *sumOut != "" {
		raw, err := client.Summary(ctx, id)
		if err != nil {
			return ts.Fail(err)
		}
		if err := os.WriteFile(*sumOut, raw, 0o644); err != nil {
			return ts.Fail(err)
		}
	}
	return 0
}

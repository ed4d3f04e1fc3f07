// dmfb-campaign runs large randomized fault-injection campaigns
// against the PCR case-study placement: place once, then inject
// faults trial after trial and attempt recovery via partial
// reconfiguration (Section 5.1), optionally falling back to full
// re-placement. Trials run across a worker pool with per-trial
// deterministic RNG streams, so the same seed produces the same
// summary at any worker count, and campaigns checkpoint to a JSONL
// file so an interrupted run resumes exactly where it stopped. The
// campaign definition lives in dispatch.Spec, shared with the
// distributed dispatcher — a dmfb-dispatch fleet produces summaries
// byte-identical to this tool's (compare with -summary).
//
// Usage:
//
//	dmfb-campaign -trials 10000                      # 2-fault campaign, all cores
//	dmfb-campaign -mode single -trials 100000        # uniform single faults
//	dmfb-campaign -mode yield -defect-prob 0.02 -full        # uniform defect yield
//	dmfb-campaign -mode yield -defect-model clustered        # Poisson-cluster defects
//	dmfb-campaign -mode yield -defect-model file -defect-file die.map
//	dmfb-campaign -mode yield -spares 2 -ladder      # space redundancy + design-time ladder
//	dmfb-campaign -mode assay -recovery ladder       # full simulation per trial
//	dmfb-campaign -trials 1000000 -checkpoint run.jsonl  # interruptible
//	dmfb-campaign -trials 1000000 -checkpoint run.jsonl -resume
//	dmfb-campaign -summary sum.json                  # deterministic summary bytes
//	dmfb-campaign -trace t.jsonl -metrics m.json     # observability
//	dmfb-campaign -ops :9090                         # live /metrics + /progress
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmfb/internal/campaign"
	"dmfb/internal/dispatch"
	"dmfb/internal/stats"
	"dmfb/internal/telemetry/cliflags"
)

// output is the machine-readable record of one campaign run. For
// -mode assay the summary's values quantiles are the per-trial ladder
// depth (the deepest recovery level any fault forced).
type output struct {
	Summary      campaign.Summary `json:"summary"`
	PredictedFTI float64          `json:"predicted_fti"`
	RecoveryMode string           `json:"recovery_mode,omitempty"`
	Workers      int              `json:"workers"`
	Resumed      int              `json:"resumed,omitempty"`
	ElapsedMS    float64          `json:"elapsed_ms"`
	TrialMS      stats.Summary    `json:"trial_ms"`
}

func main() {
	var (
		workers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		timeout = flag.Duration("timeout", 0, "per-trial timeout (0 = none; breaks determinism when it fires)")
		ckpt    = flag.String("checkpoint", "", "JSONL checkpoint `file` (appended per trial)")
		resume  = flag.Bool("resume", false, "resume a previous run from -checkpoint")
		jsonOut = flag.String("json", "", "write machine-readable results to `file`")
		sumOut  = flag.String("summary", "", "write the deterministic summary JSON to `file` (byte-identical to a dmfb-dispatch fleet's)")
		quiet   = flag.Bool("quiet", false, "suppress progress output")
		spec    = dispatch.SpecFlags(flag.CommandLine, 10000, false)
	)
	os.Exit(cliflags.Main("dmfb-campaign", func(ts *cliflags.Session) int {
		sp, err := spec()
		if err != nil {
			return ts.Usage(err)
		}
		return run(ts, sp, params{
			workers: *workers, timeout: *timeout, ckpt: *ckpt, resume: *resume,
			jsonOut: *jsonOut, sumOut: *sumOut, quiet: *quiet,
		})
	}))
}

// params carries the parsed non-spec flag values into run.
type params struct {
	workers               int
	resume, quiet         bool
	timeout               time.Duration
	ckpt, jsonOut, sumOut string
}

// run executes the campaign sp, already validated and normalized.
func run(ts *cliflags.Session, sp dispatch.Spec, pr params) int {
	built, err := sp.Build(context.Background(), dispatch.BuildOptions{
		Tool: "dmfb-campaign", Tracer: ts.Tracer, Metrics: ts.Metrics,
	})
	if err != nil {
		return ts.Fail(err)
	}
	name := sp.Name()
	fmt.Printf("placement: PCR, %d modules on %dx%d array, predicted FTI %.4f\n",
		built.Modules, built.ArrayW, built.ArrayH, built.PredictedFTI)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The first signal cancels ctx and the campaign drains gracefully
	// (deferred ts.Close flushes everything); a second signal while it
	// drains flushes partial telemetry and hard-exits.
	go func() {
		<-ctx.Done()
		ts.FlushOnSignal(130, os.Interrupt, syscall.SIGTERM)
	}()

	cfg := campaign.Config{
		Name:         name,
		Trials:       built.Trials,
		Workers:      pr.workers,
		Seed:         sp.Seed,
		TrialTimeout: pr.timeout,
		Checkpoint:   pr.ckpt,
		Resume:       pr.resume,
		// The fingerprint pins the trial-defining parameters in the
		// checkpoint header, so -resume against a checkpoint written
		// under a different configuration fails instead of merging
		// incompatible trial streams.
		Fingerprint: sp.Fingerprint(),
		Metrics:     ts.Metrics,
		Tracer:      ts.Tracer,
	}
	if ts.Ops() != nil {
		tracker := campaign.NewProgressTracker(name, built.Trials)
		cfg.Tracker = tracker
		ts.SetProgress(func() any { return tracker.Snapshot() })
	}
	if !pr.quiet {
		lastPct := -1
		cfg.Progress = func(done, total int) {
			if pct := done * 100 / total; pct != lastPct && pct%5 == 0 {
				lastPct = pct
				fmt.Fprintf(os.Stderr, "\r%3d%% (%d/%d trials)", pct, done, total)
			}
		}
	}

	rep, runErr := campaign.Run(ctx, cfg, built.Fn)
	if !pr.quiet {
		fmt.Fprintln(os.Stderr)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "dmfb-campaign:", runErr)
		if ctx.Err() != nil && pr.ckpt != "" {
			fmt.Fprintf(os.Stderr, "dmfb-campaign: %d trials checkpointed; rerun with -resume to continue\n",
				rep.Summary.Trials)
		}
		return 1
	}

	s := rep.Summary
	fmt.Printf("%s\n", s)
	fmt.Printf("survival %.4f, 95%% Wilson CI [%.4f, %.4f] (predicted FTI %.4f)\n",
		s.SurvivalRate, s.Wilson95Lo, s.Wilson95Hi, built.PredictedFTI)
	if s.Values != nil {
		label := "values"
		if sp.Mode == "assay" {
			label = "ladder depth"
		}
		fmt.Printf("%s: mean %.3f, median %.1f, p95 %.1f, max %.1f\n",
			label, s.Values.Mean, s.Values.Median, s.Values.P95, s.Values.Max)
	}
	fmt.Printf("%d workers, %d trials in %.1fms (trial p50 %.3f / p95 %.3f / p99 %.3f ms)",
		rep.Workers, s.Trials, float64(rep.Elapsed.Microseconds())/1000,
		rep.TrialMS.Median, rep.TrialMS.P95, rep.TrialMS.P99)
	if rep.Resumed > 0 {
		fmt.Printf(", %d replayed from checkpoint", rep.Resumed)
	}
	fmt.Println()

	if pr.sumOut != "" {
		// The exact bytes a dispatcher serves from /v1/campaigns/{id}/summary.
		raw, err := s.MarshalDeterministic()
		if err == nil {
			err = os.WriteFile(pr.sumOut, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmfb-campaign:", err)
			return 1
		}
	}
	if pr.jsonOut != "" {
		out := output{
			Summary:      s,
			PredictedFTI: built.PredictedFTI,
			RecoveryMode: recoveryModeName(sp.Mode, sp.Recovery),
			Workers:      rep.Workers,
			Resumed:      rep.Resumed,
			ElapsedMS:    float64(rep.Elapsed.Microseconds()) / 1000,
			TrialMS:      rep.TrialMS,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(pr.jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmfb-campaign:", err)
			return 1
		}
	}
	return 0
}

// recoveryModeName records the recovery mode in JSON output for assay
// campaigns only (the other modes do not run the simulator).
func recoveryModeName(mode, recovery string) string {
	if mode == "assay" {
		return recovery
	}
	return ""
}

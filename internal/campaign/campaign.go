// Package campaign is the fault-injection campaign engine: it runs
// large numbers of randomized, independent end-to-end trials (place →
// inject faults → recover) across a worker pool and aggregates the
// outcomes into survival statistics.
//
// The engine's contract is determinism at scale. Trial t of a campaign
// seeded with S always executes with the RNG stream TrialRNG(S, t),
// derived by a splitmix64 splitter, never with a stream shared between
// trials — so the campaign's aggregate is bit-identical whether it ran
// on one worker or sixty-four, locally or resumed from a checkpoint
// after a kill. Trials are scheduled in chunks through a lock-free
// cursor, completed trials stream to an append-only JSONL checkpoint,
// and cancellation (context or per-trial timeout) is honoured between
// and — cooperatively — within trials.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/stats"
	"dmfb/internal/telemetry"
)

// Trial is the per-trial context handed to a TrialFunc.
type Trial struct {
	// Index is the trial number in [0, Config.Trials).
	Index int
	// Seed is the derived per-trial seed, DeriveSeed(campaign seed,
	// Index). Trial functions that seed nested stochastic stages (a
	// full-reconfiguration annealer, say) must derive sub-seeds from it
	// with DeriveSeed rather than inventing arithmetic on the campaign
	// seed.
	Seed int64
	// RNG is the trial's private random stream, already positioned at
	// its start.
	RNG *rand.Rand
	// Tracer is the campaign's tracer scoped under this trial's
	// "campaign.trial" span (nil when tracing is disabled). Trial
	// functions hand it to nested stages (simulator, recovery ladder)
	// so traces form a campaign→trial→recovery hierarchy.
	Tracer *telemetry.Tracer
	// Metrics is the campaign's registry, Config.Metrics (nil when
	// metrics are disabled). Trial functions hand it to the same
	// nested stages as Tracer, so their sim.*, router.*, recovery.*
	// and reconfig.* metrics land in the registry of the campaign that
	// ran them.
	Metrics *telemetry.Registry
}

// Outcome is what one trial reports back.
type Outcome struct {
	// Survived records whether the configuration absorbed the injected
	// fault(s).
	Survived bool
	// Value is an optional per-trial measurement (faults absorbed,
	// relocations performed, defects on the die, ...) aggregated into
	// Summary.Values quantiles.
	Value float64
	// Err marks an infrastructure failure (timeout, invalid input) as
	// opposed to a plain non-survival. Erroneous trials count in
	// Summary.Errors and never in Survived.
	Err error
}

// TrialFunc executes one independent trial. It must be safe for
// concurrent invocation (each call owns its Trial.RNG) and should poll
// ctx in long loops so per-trial timeouts and campaign cancellation
// take effect; the engine also enforces both between trials.
type TrialFunc func(ctx context.Context, t Trial) Outcome

// Config parameterises a campaign run.
type Config struct {
	// Name identifies the campaign in checkpoints and summaries.
	Name string
	// Trials is the number of independent trials (required, > 0).
	Trials int
	// Workers sizes the pool; 0 means GOMAXPROCS.
	Workers int
	// Seed is the campaign seed from which every trial stream derives.
	Seed int64
	// TrialTimeout bounds each trial's wall time; 0 disables. A timed
	// out trial is recorded as an error, which makes the aggregate
	// dependent on machine speed — leave timeouts off when
	// bit-reproducibility matters.
	TrialTimeout time.Duration
	// Checkpoint is the JSONL checkpoint path; "" disables
	// checkpointing.
	Checkpoint string
	// Resume replays completed trials from the checkpoint file instead
	// of re-running them. Requires Checkpoint.
	Resume bool
	// Fingerprint identifies the campaign configuration beyond
	// (Name, Seed, Trials) — typically ConfigFingerprint over the
	// parameters that change what a trial computes (placement seed,
	// fault counts, recovery mode). It is pinned in the checkpoint
	// header, so Resume refuses to replay trials recorded under a
	// different configuration. Empty disables the check against files
	// that predate fingerprints.
	Fingerprint string
	// Metrics, if non-nil, receives campaign.* counters and the
	// campaign.trial_ms histogram, and is every trial's Trial.Metrics.
	Metrics *telemetry.Registry
	// Tracer, if non-nil, receives a campaign.run span.
	Tracer *telemetry.Tracer
	// Progress, if non-nil, is called after every completed trial with
	// the running completion count. It is called from worker
	// goroutines under a lock; keep it fast.
	Progress func(done, total int)
	// Tracker, if non-nil, receives per-trial outcomes for the live
	// /progress surface (done/total, rate, ETA, Wilson interval,
	// recovery-depth counts). It never affects the Summary.
	Tracker *ProgressTracker
}

// Summary is the deterministic aggregate of a campaign: for a given
// (trial function, Name, Seed, Trials) it is bit-identical at any
// worker count, across checkpoint resumes, and across platforms —
// which is what the determinism golden tests pin. Wall-clock facts
// live in Report, never here.
type Summary struct {
	Name         string         `json:"name,omitempty"`
	Seed         int64          `json:"seed"`
	Trials       int            `json:"trials"`
	Survived     int            `json:"survived"`
	Errors       int            `json:"errors,omitempty"`
	SurvivalRate float64        `json:"survival_rate"`
	Wilson95Lo   float64        `json:"wilson95_lo"`
	Wilson95Hi   float64        `json:"wilson95_hi"`
	Values       *stats.Summary `json:"values,omitempty"`
}

// String renders the summary's headline numbers.
func (s Summary) String() string {
	return fmt.Sprintf("%s: survived %d/%d (%.4f, 95%% CI [%.4f, %.4f], %d errors)",
		s.Name, s.Survived, s.Trials, s.SurvivalRate, s.Wilson95Lo, s.Wilson95Hi, s.Errors)
}

// MarshalDeterministic returns the canonical JSON encoding of the
// summary — the byte string the determinism tests compare across
// worker counts and resumes.
func (s Summary) MarshalDeterministic() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Report is the full outcome of Run: the deterministic Summary plus
// the run's wall-clock facts, which vary machine to machine.
type Report struct {
	Summary Summary
	// Workers is the realised pool size.
	Workers int
	// Elapsed is the campaign wall time.
	Elapsed time.Duration
	// TrialMS summarises per-trial wall times in milliseconds
	// (executed trials only; zero-valued when every trial was replayed
	// from a checkpoint).
	TrialMS stats.Summary
	// Resumed counts trials replayed from the checkpoint rather than
	// executed.
	Resumed int
}

// slot is one entry of a result table: a trial's result once done.
type slot struct {
	done bool
	res  TrialResult
}

// completed returns the done slots' results in index order.
func completed(table []slot) []TrialResult {
	out := make([]TrialResult, 0, len(table))
	for _, s := range table {
		if s.done {
			out = append(out, s.res)
		}
	}
	return out
}

// validate checks what every campaign entry point requires.
func validate(cfg Config, fn TrialFunc) error {
	if fn == nil {
		return fmt.Errorf("campaign: nil trial function")
	}
	if cfg.Trials <= 0 {
		return fmt.Errorf("campaign: need at least one trial, got %d", cfg.Trials)
	}
	return nil
}

// Run executes the campaign and returns its report. The error is
// non-nil only for infrastructure failures: invalid configuration,
// checkpoint I/O, or cancellation before every trial completed (the
// partial Report still describes the completed trials, and the
// checkpoint — if any — holds them for a later Resume).
func Run(ctx context.Context, cfg Config, fn TrialFunc) (Report, error) {
	if err := validate(cfg, fn); err != nil {
		return Report{}, err
	}
	if cfg.Resume && cfg.Checkpoint == "" {
		return Report{}, fmt.Errorf("campaign: Resume requires a Checkpoint path")
	}

	start := time.Now()
	span := cfg.Tracer.Start("campaign.run")

	table := make([]slot, cfg.Trials)
	resumed := 0
	id := CheckpointID{Campaign: cfg.Name, Seed: cfg.Seed, Trials: cfg.Trials, Fingerprint: cfg.Fingerprint}
	if cfg.Resume {
		done, err := ReadResultLog(cfg.Checkpoint, id)
		if err != nil {
			return Report{}, err
		}
		for _, r := range done {
			table[r.Trial] = slot{done: true, res: r}
		}
		resumed = len(done)
		cfg.Tracker.noteResumed(resumed)
	}
	var rlog *ResultLog
	if cfg.Checkpoint != "" {
		var err error
		if rlog, err = NewResultLog(cfg.Checkpoint, id); err != nil {
			return Report{}, err
		}
		defer rlog.Close()
	}

	var (
		count     = resumed
		durations []float64
		writeErr  error
	)
	workers := runTrials(ctx, cfg, fn, 0, table, cfg.Tracer.Under(span.ID()), func(r TrialResult, ms float64) {
		if rlog != nil {
			if err := rlog.Append(r); err != nil && writeErr == nil {
				writeErr = err
			}
		}
		count++
		durations = append(durations, ms)
		if cfg.Progress != nil {
			cfg.Progress(count, cfg.Trials)
		}
	})

	rep := Report{Workers: workers, Elapsed: time.Since(start), Resumed: resumed}
	if len(durations) > 0 {
		rep.TrialMS = stats.Describe(durations)
	}
	rep.Summary = Summarize(cfg.Name, cfg.Seed, completed(table))
	span.End(telemetry.Fields{
		"campaign": cfg.Name,
		"trials":   rep.Summary.Trials,
		"survived": rep.Summary.Survived,
		"workers":  workers,
		"resumed":  resumed,
	})
	if writeErr != nil {
		return rep, writeErr
	}
	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("campaign: interrupted after %d/%d trials: %w",
			rep.Summary.Trials, cfg.Trials, err)
	}
	return rep, nil
}

// runTrials is the engine's one worker loop, shared by Run and
// RunRange. It executes trials [lo, lo+len(table)) of cfg, skipping
// those whose slot is already done (replayed from a checkpoint).
// Workers claim contiguous chunks of trials from an atomic cursor, so
// per-trial scheduling overhead stays far below the cost of a trial
// even for microsecond-scale trials. Each completed trial fills its
// slot and, when onDone is non-nil, is passed to it with its wall time
// in milliseconds; both happen under one lock. Trial spans are started
// from tr, the campaign's tracer scoped under its run or range span.
// It returns the realised pool size.
func runTrials(ctx context.Context, cfg Config, fn TrialFunc, lo int, table []slot,
	tr *telemetry.Tracer, onDone func(r TrialResult, ms float64)) int {
	n := len(table)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	chunk := min(max(n/(workers*8), 1), 256)

	safeFn := panicSafe(cfg.Name, fn)
	var (
		mu     sync.Mutex
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				o := int(cursor.Add(int64(chunk))) - chunk
				if o >= n {
					return
				}
				for end := min(o+chunk, n); o < end; o++ {
					if table[o].done {
						continue
					}
					if ctx.Err() != nil {
						return
					}
					i := lo + o
					tsp := tr.Start("campaign.trial")
					t := Trial{Index: i, Seed: DeriveSeed(cfg.Seed, uint64(i)), RNG: TrialRNG(cfg.Seed, i),
						Tracer: tr.Under(tsp.ID()), Metrics: cfg.Metrics}
					t0 := time.Now()
					out := execTrial(ctx, cfg.TrialTimeout, safeFn, t)
					if cerr := ctx.Err(); cerr != nil && errors.Is(out.Err, cerr) {
						// The campaign was cancelled while this trial was
						// in flight: the outcome reflects the kill, not
						// the trial. Leave the slot empty (and out of any
						// checkpoint) so a resume or a re-issued range
						// re-runs the trial instead of replaying a
						// phantom error — the result must be
						// bit-identical to an uninterrupted run.
						tsp.End(telemetry.Fields{"trial": i, "cancelled": true})
						return
					}
					ms := float64(time.Since(t0).Microseconds()) / 1000
					r := TrialResult{Trial: i, Survived: out.Survived && out.Err == nil, Value: out.Value}
					if out.Err != nil {
						r.Err = out.Err.Error()
					}
					tsp.End(telemetry.Fields{
						"trial":    i,
						"survived": r.Survived,
						"value":    r.Value,
						"errored":  out.Err != nil,
					})
					cfg.Metrics.Counter("campaign.trials").Inc()
					if r.Survived {
						cfg.Metrics.Counter("campaign.trials_survived").Inc()
					}
					if r.Err != "" {
						cfg.Metrics.Counter("campaign.trial_errors").Inc()
					}
					cfg.Metrics.Histogram("campaign.trial_ms", telemetry.LatencyBuckets...).Observe(ms)
					cfg.Tracker.observe(r.Survived, r.Err != "", r.Value)

					mu.Lock()
					table[o] = slot{done: true, res: r}
					if onDone != nil {
						onDone(r, ms)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return workers
}

// panicSafe wraps a trial function so a panicking trial is recorded as
// an erroneous outcome — campaign name, trial index and seed, panic
// value and stack — instead of killing the whole campaign (and, under
// a per-trial timeout, the worker goroutine with it). The panic is
// a deterministic property of the trial, so the summary stays
// bit-identical at any worker count.
func panicSafe(name string, fn TrialFunc) TrialFunc {
	return func(ctx context.Context, t Trial) (out Outcome) {
		defer func() {
			if r := recover(); r != nil {
				out = Outcome{Err: fmt.Errorf("campaign %q: trial %d (seed %d) panicked: %v\n%s",
					name, t.Index, t.Seed, r, debug.Stack())}
			}
		}()
		return fn(ctx, t)
	}
}

// execTrial runs one trial under the per-trial timeout. Timeouts are
// enforced both cooperatively (the trial sees an expiring ctx) and
// preemptively: a trial that overruns is abandoned to finish in the
// background and recorded as a timeout error.
func execTrial(ctx context.Context, timeout time.Duration, fn TrialFunc, t Trial) Outcome {
	if timeout <= 0 {
		return fn(ctx, t)
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ch := make(chan Outcome, 1)
	go func() { ch <- fn(tctx, t) }()
	select {
	case out := <-ch:
		if tctx.Err() != nil && ctx.Err() == nil {
			return Outcome{Err: fmt.Errorf("campaign: trial %d timed out after %v", t.Index, timeout)}
		}
		return out
	case <-tctx.Done():
		if ctx.Err() != nil {
			return Outcome{Err: ctx.Err()}
		}
		return Outcome{Err: fmt.Errorf("campaign: trial %d timed out after %v", t.Index, timeout)}
	}
}

// Summarize is the canonical merge: it folds completed-trial results —
// from any number of workers, machines, or checkpoint replays, in any
// order — into the deterministic Summary. It sorts by trial index
// before folding (ignoring duplicate records for a trial, which are
// identical by construction for a deterministic trial function), so
// for a fixed result set the output is byte-identical to the
// single-process engine's: Run itself aggregates through this
// function. This is the spine of the distributed dispatcher's
// byte-identity guarantee.
func Summarize(name string, seed int64, results []TrialResult) Summary {
	sorted := append([]TrialResult(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Trial < sorted[j].Trial })
	s := Summary{Name: name, Seed: seed}
	var values []float64
	prev := -1
	for _, r := range sorted {
		if r.Trial == prev {
			continue
		}
		prev = r.Trial
		s.Trials++
		switch {
		case r.Err != "":
			s.Errors++
		case r.Survived:
			s.Survived++
		}
		values = append(values, r.Value)
	}
	if s.Trials > 0 {
		s.SurvivalRate = float64(s.Survived) / float64(s.Trials)
		s.Wilson95Lo, s.Wilson95Hi = stats.Wilson95(s.Survived, s.Trials)
		vs := stats.Describe(values)
		s.Values = &vs
	}
	return s
}

// RunRange executes the contiguous trial range [lo, hi) of the
// campaign described by cfg and returns the completed trials in index
// order — the worker-side half of a distributed campaign. Because
// every trial's RNG stream derives only from (cfg.Seed, index), a
// range runs identically wherever it executes; merging the ranges of
// any partition of [0, cfg.Trials) through Summarize reproduces
// Run's summary byte for byte.
//
// Checkpointing and Resume are whole-campaign concerns and are
// rejected here, and Progress is not called; Metrics, Tracer, Tracker
// and TrialTimeout apply as in Run. On cancellation the completed
// trials are returned along with the context error — partial results
// are valid and may still be reported upstream.
func RunRange(ctx context.Context, cfg Config, fn TrialFunc, lo, hi int) ([]TrialResult, error) {
	if err := validate(cfg, fn); err != nil {
		return nil, err
	}
	if lo < 0 || hi > cfg.Trials || lo >= hi {
		return nil, fmt.Errorf("campaign: range [%d,%d) outside campaign of %d trials", lo, hi, cfg.Trials)
	}
	if cfg.Checkpoint != "" || cfg.Resume {
		return nil, fmt.Errorf("campaign: RunRange does not checkpoint; record results upstream")
	}

	span := cfg.Tracer.Start("campaign.range")
	table := make([]slot, hi-lo)
	runTrials(ctx, cfg, fn, lo, table, cfg.Tracer.Under(span.ID()), nil)
	out := completed(table)
	span.End(telemetry.Fields{"campaign": cfg.Name, "lo": lo, "hi": hi, "completed": len(out)})
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("campaign: range [%d,%d) interrupted after %d trials: %w", lo, hi, len(out), err)
	}
	return out, nil
}

package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"sort"
	"sync"
)

// Checkpoint file format (JSONL, append-only):
//
//	{"v":1,"campaign":"pcr-multi","seed":1,"trials":10000}   header
//	{"trial":17,"survived":true,"value":2}                   one line per trial
//	{"trial":18,"survived":false,"err":"timeout"}
//
// The header pins the campaign identity; Resume refuses a checkpoint
// whose name, seed, trial count or config fingerprint differ, since
// replaying trials from a different campaign would silently corrupt
// the aggregate. Trial lines may appear in any order (workers finish
// out of order) and the file tolerates a torn final line — the write
// that was interrupted by the kill that the resume is recovering from.
//
// ResultLog writes the format and ReadResultLog replays it, for Run's
// checkpoint and resume and for the dispatcher's durable result store
// alike.

const checkpointVersion = 1

type checkpointHeader struct {
	V        int    `json:"v"`
	Campaign string `json:"campaign,omitempty"`
	Seed     int64  `json:"seed"`
	Trials   int    `json:"trials"`
	// Config is the campaign's config fingerprint (ConfigFingerprint);
	// empty in files written before fingerprints existed.
	Config string `json:"config,omitempty"`
}

func (h checkpointHeader) identity() string {
	return fmt.Sprintf("campaign %q seed=%d trials=%d config=%q",
		h.Campaign, h.Seed, h.Trials, h.Config)
}

// TrialResult is the recorded outcome of one completed trial — the
// unit of the checkpoint file and of the dispatcher's result stream.
// Survived is already gated on Err being empty (an erroneous trial
// never counts as survived), matching what Run records.
type TrialResult struct {
	Trial    int     `json:"trial"`
	Survived bool    `json:"survived"`
	Value    float64 `json:"value,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// ConfigFingerprint hashes the campaign-defining parameters (mode,
// fault counts, placement seed, ...) into a short stable string for
// Config.Fingerprint. Seed and trial count are pinned separately by
// the checkpoint header, so callers should pass only the parameters
// that change what a trial computes.
func ConfigFingerprint(parts ...any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", parts)
	return fmt.Sprintf("%016x", h.Sum64())
}

// readCheckpoint reads the checkpoint file at path: its header (nil
// for an empty file) and its trial records sorted by trial index, the
// last record of a repeated trial winning. A line that does not parse
// is skipped: a torn trailing line is expected after a kill, and
// anything unparsable is simply not counted as completed.
func readCheckpoint(path string) (*checkpointHeader, []TrialResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open checkpoint: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, nil, nil
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint %s: corrupt header: %w", path, err)
	}
	byTrial := make(map[int]TrialResult)
	for sc.Scan() {
		var r TrialResult
		if json.Unmarshal(sc.Bytes(), &r) == nil {
			byTrial[r.Trial] = r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	results := make([]TrialResult, 0, len(byTrial))
	for _, r := range byTrial {
		results = append(results, r)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].Trial < results[b].Trial })
	return &hdr, results, nil
}

// CheckpointInfo is the read-only summary of a checkpoint file, for
// reporting tools (dmfb-report) that inspect a run they did not
// start.
type CheckpointInfo struct {
	// Campaign, Seed and Trials are the header identity: the campaign
	// the file belongs to and its planned trial count.
	Campaign string
	Seed     int64
	Trials   int
	// Done is the number of recorded (completed) trials.
	Done int
	// Survived and Errors count recorded outcomes.
	Survived int
	Errors   int
	// Values holds each recorded trial's value in trial-index order.
	Values []float64
	// Results holds the full recorded outcomes in trial-index order,
	// so reporters can pair each trial's value with its survival (the
	// yield-by-defect-count buckets of dmfb-report).
	Results []TrialResult
	// ErrorCounts maps error text to occurrence count.
	ErrorCounts map[string]int
}

// ReadCheckpoint reads any campaign checkpoint file and summarises
// its recorded outcomes. Unlike resume, it accepts any header (it is
// not replaying trials, only reporting them); a torn trailing line is
// skipped as usual.
func ReadCheckpoint(path string) (*CheckpointInfo, error) {
	hdr, results, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if hdr == nil {
		return nil, fmt.Errorf("campaign: checkpoint %s is empty", path)
	}
	info := &CheckpointInfo{Campaign: hdr.Campaign, Seed: hdr.Seed, Trials: hdr.Trials,
		Done: len(results), Results: results}
	for _, line := range results {
		if line.Survived {
			info.Survived++
		}
		if line.Err != "" {
			info.Errors++
			if info.ErrorCounts == nil {
				info.ErrorCounts = make(map[string]int)
			}
			info.ErrorCounts[line.Err]++
		}
		info.Values = append(info.Values, line.Value)
	}
	return info, nil
}

// CheckpointID is the identity a checkpoint file is pinned to: the
// header the file starts with, and what ResultLog and ReadResultLog
// (and Run's Resume, via Config) refuse to mix.
type CheckpointID struct {
	Campaign    string
	Seed        int64
	Trials      int
	Fingerprint string
}

func (id CheckpointID) header() checkpointHeader {
	return checkpointHeader{
		V: checkpointVersion, Campaign: id.Campaign, Seed: id.Seed,
		Trials: id.Trials, Config: id.Fingerprint,
	}
}

// ResultLog is the append-only trial-result store in the checkpoint
// format: Run's checkpoint, and the dispatch service's record of
// results streamed in by workers. Appends are serialised and flushed
// per record, so a killed process loses at most the record being
// written.
type ResultLog struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// NewResultLog opens (or creates) the result log at path for
// appending, writing the id header when the file is new or empty.
func NewResultLog(path string, id CheckpointID) (*ResultLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open checkpoint: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: stat checkpoint: %w", err)
	}
	l := &ResultLog{f: f, w: bufio.NewWriter(f)}
	if st.Size() == 0 {
		if err := l.writeJSON(id.header()); err != nil {
			f.Close()
			return nil, err
		}
	}
	return l, nil
}

func (l *ResultLog) writeJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("campaign: write checkpoint: %w", err)
	}
	return l.w.Flush()
}

// Append records one completed trial.
func (l *ResultLog) Append(r TrialResult) error { return l.writeJSON(r) }

// Close flushes and closes the log file.
func (l *ResultLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadResultLog replays a result log written under id and returns the
// recorded trials sorted by trial index (duplicate records for a
// trial collapse, the last winning; a torn trailing line is skipped).
// A missing or empty file is an empty log. An id mismatch or a trial
// outside the id's range is an error: results from a different
// campaign must never be merged.
func ReadResultLog(path string, id CheckpointID) ([]TrialResult, error) {
	want := id.header()
	hdr, results, err := readCheckpoint(path)
	if errors.Is(err, fs.ErrNotExist) || err == nil && hdr == nil {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if *hdr != want {
		return nil, fmt.Errorf(
			"campaign: checkpoint %s was written by %s; refusing to resume %s",
			path, hdr.identity(), want.identity())
	}
	for _, r := range results {
		if r.Trial < 0 || r.Trial >= want.Trials {
			return nil, fmt.Errorf("campaign: checkpoint %s: trial %d out of range [0,%d)",
				path, r.Trial, want.Trials)
		}
	}
	return results, nil
}

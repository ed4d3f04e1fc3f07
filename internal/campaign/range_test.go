package campaign

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// rangeTrialFn is a deterministic-but-messy trial function: outcomes
// depend only on the trial's private RNG stream, with survivals,
// values and occasional errors mixed in, so summary byte-identity
// across chunkings exercises every aggregation path (counters, Wilson
// interval, values quantiles and their float fold order).
func rangeTrialFn(_ context.Context, t Trial) Outcome {
	v := t.RNG.Float64()
	out := Outcome{
		Survived: v < 0.7,
		Value:    float64(t.RNG.Intn(7)),
	}
	if t.RNG.Float64() < 0.05 {
		out.Err = errors.New("synthetic infrastructure failure")
		out.Survived = false
	}
	return out
}

// runWhole runs the campaign single-process and returns its summary's
// deterministic bytes — the reference every chunking must reproduce.
func runWhole(t *testing.T, cfg Config) []byte {
	t.Helper()
	rep, err := Run(context.Background(), cfg, rangeTrialFn)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	raw, err := rep.Summary.MarshalDeterministic()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return raw
}

// mergeChunks runs the given [lo,hi) chunks through RunRange in the
// order supplied and merges with Summarize.
func mergeChunks(t *testing.T, cfg Config, chunks [][2]int) []byte {
	t.Helper()
	var all []TrialResult
	for _, c := range chunks {
		res, err := RunRange(context.Background(), cfg, rangeTrialFn, c[0], c[1])
		if err != nil {
			t.Fatalf("RunRange[%d,%d): %v", c[0], c[1], err)
		}
		all = append(all, res...)
	}
	sum := Summarize(cfg.Name, cfg.Seed, all)
	raw, err := sum.MarshalDeterministic()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return raw
}

// chunkings cuts [0,n) into runs of width <= chunk.
func chunking(n, chunk int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

func TestRunRangeFullRangeMatchesRun(t *testing.T) {
	cfg := Config{Name: "range-full", Trials: 200, Seed: 42, Workers: 4}
	want := runWhole(t, cfg)
	got := mergeChunks(t, cfg, [][2]int{{0, 200}})
	if string(got) != string(want) {
		t.Errorf("full-range summary differs from Run:\n got %s\nwant %s", got, want)
	}
}

// TestChunkMergeProperty is the dispatcher's byte-identity argument as
// a property test: for random campaign seeds and random chunk sizes —
// with the chunks executed in a random order, as a fleet of workers
// would — merging the per-chunk results always reproduces the
// single-process summary byte for byte.
func TestChunkMergeProperty(t *testing.T) {
	const trials = 157 // awkward non-multiple of any chunk size
	meta := rand.New(rand.NewSource(7))
	for round := 0; round < 12; round++ {
		seed := meta.Int63n(1 << 30)
		chunk := 1 + meta.Intn(trials+10) // occasionally one chunk covers everything
		cfg := Config{Name: "range-prop", Trials: trials, Seed: seed, Workers: 3}
		want := runWhole(t, cfg)
		chunks := chunking(trials, chunk)
		meta.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		got := mergeChunks(t, cfg, chunks)
		if string(got) != string(want) {
			t.Fatalf("seed %d chunk %d: merged summary differs\n got %s\nwant %s",
				seed, chunk, got, want)
		}
	}
}

// TestChunkMergeDuplicates checks the dispatcher's idempotence rule:
// a chunk reported twice (an expired lease whose worker kept going)
// changes nothing, because Summarize keeps the first result per index.
func TestChunkMergeDuplicates(t *testing.T) {
	cfg := Config{Name: "range-dup", Trials: 96, Seed: 9, Workers: 2}
	want := runWhole(t, cfg)
	chunks := chunking(96, 32)
	chunks = append(chunks, chunks[1]) // chunk [32,64) reported twice
	got := mergeChunks(t, cfg, chunks)
	if string(got) != string(want) {
		t.Errorf("duplicate chunk changed the summary:\n got %s\nwant %s", got, want)
	}
}

func TestRunRangeRejects(t *testing.T) {
	ctx := context.Background()
	base := Config{Name: "r", Trials: 10, Seed: 1}
	cases := []struct {
		name   string
		cfg    Config
		lo, hi int
	}{
		{"empty range", base, 5, 5},
		{"inverted range", base, 6, 2},
		{"beyond trials", base, 0, 11},
		{"negative lo", base, -1, 4},
		{"checkpoint", Config{Name: "r", Trials: 10, Seed: 1, Checkpoint: "x.jsonl"}, 0, 10},
	}
	for _, tc := range cases {
		if _, err := RunRange(ctx, tc.cfg, rangeTrialFn, tc.lo, tc.hi); err == nil {
			t.Errorf("%s: RunRange accepted invalid input", tc.name)
		}
	}
}

// FuzzChunkMerge fuzzes the byte-identity property over campaign seed
// and chunk size.
func FuzzChunkMerge(f *testing.F) {
	f.Add(int64(1), uint8(16))
	f.Add(int64(5), uint8(1))
	f.Add(int64(-3), uint8(64))
	f.Add(int64(1<<40), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, chunk uint8) {
		const trials = 61
		c := int(chunk)
		if c == 0 {
			c = 1
		}
		cfg := Config{Name: "range-fuzz", Trials: trials, Seed: seed, Workers: 2}
		want := runWhole(t, cfg)
		got := mergeChunks(t, cfg, chunking(trials, c))
		if string(got) != string(want) {
			t.Fatalf("seed %d chunk %d: merged summary differs\n got %s\nwant %s",
				seed, c, got, want)
		}
	})
}

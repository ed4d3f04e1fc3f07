package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadCheckpoint replays arbitrary bytes as a checkpoint file
// through ReadCheckpoint (the reporting reader) and ReadResultLog
// (the resume and result-log reader). Either may refuse the file, but
// neither may panic, and what they return is bounded by the input: no
// more trials than the file has lines after its header, recorded
// trials inside the header's range, and counts that agree with each
// other. Seeds are a checkpoint written by a short campaign and
// truncations of it, the torn tails a killed run leaves.
func FuzzReadCheckpoint(f *testing.F) {
	ckpt := filepath.Join(f.TempDir(), "c.jsonl")
	if _, err := Run(context.Background(),
		Config{Name: "torn", Trials: 20, Seed: 4, Checkpoint: ckpt}, coinTrial); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, cut := range []int{0, 1, 9, len(data) / 2, len(data) - 9, len(data) - 1} {
		f.Add(data[:cut])
	}
	hdr := data[:bytes.IndexByte(data, '\n')+1]
	f.Add(append(hdr[:len(hdr):len(hdr)], `{"trial":3,"survived":true}
{"trial":3,"err":"x"}
{"trial":20}
{"trial":-1}
`...))
	f.Add([]byte(`{"v":1,"campaign":"other","seed":4,"trials":2}` + "\n" + `{"trial":1,"value":2}`))
	seeded := CheckpointID{Campaign: "torn", Seed: 4, Trials: 20}

	// Inputs run one at a time per process, so they can share a file.
	path := filepath.Join(f.TempDir(), "input.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		maxTrials := bytes.Count(data, []byte{'\n'}) // lines after the header

		wants := []CheckpointID{seeded}
		if info, err := ReadCheckpoint(path); err == nil {
			if info.Done > maxTrials {
				t.Fatalf("ReadCheckpoint recorded %d trials from %d lines after the header", info.Done, maxTrials)
			}
			if len(info.Results) != info.Done || len(info.Values) != info.Done {
				t.Fatalf("Done %d but %d results, %d values", info.Done, len(info.Results), len(info.Values))
			}
			if info.Survived > info.Done || info.Errors > info.Done {
				t.Fatalf("survived %d, errors %d of %d done", info.Survived, info.Errors, info.Done)
			}
			n := 0
			for _, c := range info.ErrorCounts {
				n += c
			}
			if n != info.Errors {
				t.Fatalf("error counts sum to %d, Errors %d", n, info.Errors)
			}
			for i := 1; i < len(info.Results); i++ {
				if info.Results[i-1].Trial >= info.Results[i].Trial {
					t.Fatalf("results not in strictly ascending trial order: %d then %d",
						info.Results[i-1].Trial, info.Results[i].Trial)
				}
			}
			// The file's own identity, so resume replay runs past the
			// header check on inputs that carry one.
			wants = append(wants, CheckpointID{Campaign: info.Campaign, Seed: info.Seed, Trials: info.Trials})
		}
		for _, want := range wants {
			done, err := ReadResultLog(path, want)
			if err != nil {
				continue
			}
			if len(done) > maxTrials {
				t.Fatalf("ReadResultLog recorded %d trials from %d lines after the header", len(done), maxTrials)
			}
			for i, line := range done {
				if line.Trial < 0 || line.Trial >= want.Trials {
					t.Fatalf("trial %d recorded outside [0,%d)", line.Trial, want.Trials)
				}
				if i > 0 && done[i-1].Trial >= line.Trial {
					t.Fatalf("trials not in strictly ascending order: %d then %d", done[i-1].Trial, line.Trial)
				}
			}
		}
	})
}

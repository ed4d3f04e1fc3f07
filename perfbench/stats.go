package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// tail is the highest percentile of a sample with at least tailBeyond
// samples beyond it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// tailPercentile returns the sorted sample's value at rank n-tailBeyond
// (1-based), so exactly tailBeyond samples rank above it, labelled with
// the share of samples at or below it.
func tailPercentile(xs []float64) (tail, error) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{}, fmt.Errorf("%d samples; need more than %d", n, tailBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - tailBeyond - 1
	return tail{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), Samples: n}, nil
}

// spanRec is one span of the telemetry JSONL trace schema.
type spanRec struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	ID    uint64 `json:"id"`
	Par   uint64 `json:"par"`
	TUS   int64  `json:"t_us"`
	DurUS int64  `json:"dur_us"`
}

func parseSpans(data []byte) ([]spanRec, error) {
	var out []spanRec
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r spanRec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		if r.Kind == "span" {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfUS returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that overlap each
// other (parallel campaign trials, concurrent requests) count once.
func selfUS(recs []spanRec) map[uint64]int64 {
	kids := make(map[uint64][][2]int64)
	for _, r := range recs {
		if r.Par != 0 {
			kids[r.Par] = append(kids[r.Par], [2]int64{r.TUS, r.TUS + r.DurUS})
		}
	}
	self := make(map[uint64]int64, len(recs))
	for _, r := range recs {
		lo, hi := r.TUS, r.TUS+r.DurUS
		iv := kids[r.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), lo
		for _, c := range iv {
			a, b := max(c[0], reach), min(c[1], hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		self[r.ID] = r.DurUS - covered
	}
	return self
}

func spanStats(recs []spanRec) map[string]spanStat {
	self := selfUS(recs)
	out := make(map[string]spanStat)
	for _, r := range recs {
		s := out[r.Name]
		s.Count++
		s.TotalMS += float64(r.DurUS) / 1000
		s.SelfMS += float64(self[r.ID]) / 1000
		out[r.Name] = s
	}
	return out
}

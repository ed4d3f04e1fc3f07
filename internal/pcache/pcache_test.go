package pcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/format"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// testPlacement returns a placement of n modules with distinct
// positions and alternating orientations.
func testPlacement(n int) *place.Placement {
	mods := make([]place.Module, n)
	for i := range mods {
		mods[i] = place.Module{ID: i, Name: fmt.Sprintf("M%d", i),
			Size: geom.Size{W: 2, H: 3}, Span: geom.Interval{Start: i, End: i + 1}}
	}
	p := place.New(mods)
	for i := range p.Pos {
		p.Pos[i] = geom.Point{X: i, Y: 1}
		p.Rot[i] = i%2 == 1
	}
	return p
}

func marshal(t *testing.T, p *place.Placement) []byte {
	t.Helper()
	raw, err := format.MarshalPlacement(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCacheBasics(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(0, reg)

	if _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	e := Entry{Placement: testPlacement(3), Stats: core.Stats{Levels: 7, FinalCost: 0.5}}
	c.Put("k1", e)
	got, ok := c.Get("k1")
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Placement.String() != e.Placement.String() || got.Stats != e.Stats {
		t.Fatalf("entry mismatch: %+v", got)
	}

	// Returned slices are copies: mutating one must not poison the cache.
	got.Placement.Pos[0].X = 99
	again, _ := c.Get("k1")
	if again.Placement.Pos[0].X == 99 {
		t.Fatal("Get returned an aliased slice")
	}

	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", s)
	}
	if v := reg.Counter("pcache.hits").Value(); v != 2 {
		t.Errorf("pcache.hits counter = %d, want 2", v)
	}
	if v := reg.Counter("pcache.misses").Value(); v != 1 {
		t.Errorf("pcache.misses counter = %d, want 1", v)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	entrySize := Entry{Placement: testPlacement(4)}.bytes()
	c := New(3*entrySize, nil) // room for exactly three entries

	for i := 0; i < 3; i++ {
		c.Put(Key(fmt.Sprintf("k%d", i)), Entry{Placement: testPlacement(4)})
	}
	c.Get("k0") // refresh k0: k1 becomes least recently used
	c.Put("k3", Entry{Placement: testPlacement(4)})

	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []Key{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction / 3 entries", s)
	}

	// An entry larger than the whole budget is refused outright.
	huge := Entry{Placement: testPlacement(40)}
	if huge.bytes() <= 3*entrySize {
		t.Fatalf("huge entry (%d B) fits the %d B budget", huge.bytes(), 3*entrySize)
	}
	c.Put("huge", huge)
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget entry was cached")
	}
}

// TestCacheByteIdentity is the layer-2 acceptance test: the placement
// served from cache marshals to exactly the bytes a fresh placement
// run produces.
func TestCacheByteIdentity(t *testing.T) {
	in := pcrInput(t)
	run := func() *place.Placement {
		p, _, err := core.AnnealArea(in.Problem, in.Options)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	c := New(0, nil)
	key := Fingerprint(in)
	p := run()
	fresh := marshal(t, p)
	c.Put(key, Entry{Placement: p})

	cached, ok := c.Get(key)
	if !ok {
		t.Fatal("placement not found under its own fingerprint")
	}
	if !bytes.Equal(marshal(t, cached.Placement), fresh) {
		t.Fatal("cached placement differs from stored bytes")
	}
	if rerun := marshal(t, run()); !bytes.Equal(marshal(t, cached.Placement), rerun) {
		t.Fatal("fresh re-run differs from cached placement — placer is nondeterministic")
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; run
// under -race (make race / CI) this is the concurrency acceptance test.
func TestCacheConcurrent(t *testing.T) {
	p := testPlacement(4)
	entrySize := Entry{Placement: p}.bytes()
	c := New(8*entrySize, telemetry.NewRegistry()) // small budget forces evictions
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := Key(fmt.Sprintf("k%d", (g+i)%16))
				if _, ok := c.Get(key); !ok {
					c.Put(key, Entry{Placement: p})
				}
				if i%97 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	s := c.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d", s.Hits+s.Misses, 8*500)
	}
	if s.Entries > 8 || s.Bytes > 8*entrySize {
		t.Errorf("budget exceeded: %+v", s)
	}
}

// TestCacheEntriesAreCopies: mutating a Put argument or a Get result —
// final placement or stage 1, position or orientation — never changes
// what a later Get returns.
func TestCacheEntriesAreCopies(t *testing.T) {
	c := New(0, nil)
	e := Entry{Placement: testPlacement(3), Stage1: testPlacement(3)}
	want, want1 := marshal(t, e.Placement), marshal(t, e.Stage1)
	check := func(when string) {
		t.Helper()
		got, ok := c.Get("k")
		if !ok {
			t.Fatalf("%s: miss", when)
		}
		if !bytes.Equal(marshal(t, got.Placement), want) || !bytes.Equal(marshal(t, got.Stage1), want1) {
			t.Errorf("%s changed the cached entry", when)
		}
	}
	mutate := func(e Entry) {
		for _, p := range []*place.Placement{e.Placement, e.Stage1} {
			p.Pos[0] = geom.Point{X: 42, Y: 42}
			p.Rot[1] = !p.Rot[1]
		}
	}

	c.Put("k", e)
	mutate(e)
	check("mutating the Put argument")

	got, _ := c.Get("k")
	mutate(got)
	check("mutating a Get result")
}

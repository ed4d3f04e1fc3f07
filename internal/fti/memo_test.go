package fti

import (
	"math/rand"
	"testing"

	"dmfb/internal/geom"
)

// memoKey returns a key of kw words shaped like memoKeyFor's: an
// array word, then configurations with bit 63 set. v varies the
// module's own configuration, n varies the neighbours'.
func memoKey(kw int, v, n uint64) []uint64 {
	key := make([]uint64, kw)
	key[0] = 7<<16 | 9
	key[1] = 1<<63 | v
	for i := 2; i < kw; i++ {
		key[i] = 1<<63 | n<<8 | uint64(i)
	}
	return key
}

// collidingKey returns a key different from key that maps to the same
// slot, varying the own-configuration word.
func collidingKey(t *testing.T, tab *memoTable, key []uint64) []uint64 {
	t.Helper()
	want, _, _ := tab.lookup(key)
	for v := key[1]&^(1<<63) + 1; v < 1<<20; v++ {
		other := append([]uint64(nil), key...)
		other[1] = 1<<63 | v
		if slot, _, _ := tab.lookup(other); slot == want {
			return other
		}
	}
	t.Fatal("no colliding key found")
	return nil
}

// TestMemoCollisionLastWriterWins forces two keys into one slot of the
// direct-mapped memo: the later store evicts the earlier key, which
// then misses, and neither lookup ever returns the other key's value.
func TestMemoCollisionLastWriterWins(t *testing.T) {
	for _, degree := range []int{0, 4, maxKeyWords - 2} {
		kw := degree + 2
		tab := newMemoTable(kw)
		a := memoKey(kw, 3, 1)
		b := collidingKey(t, &tab, a)
		va := newMemoVal(geom.Rect{X: 1, Y: 2, W: 3, H: 4}, true)
		// The largest fields an accepted array allows.
		vb := newMemoVal(geom.Rect{X: 1<<15 - 2, Y: 1<<15 - 3, W: 1, H: 1<<15 - 1}, false)
		if got := vb.uncovered(); got != (geom.Rect{X: 1<<15 - 2, Y: 1<<15 - 3, W: 1, H: 1<<15 - 1}) {
			t.Fatalf("value round trip: got %v", got)
		}

		if _, _, hit := tab.lookup(a); hit {
			t.Fatalf("degree %d: empty table hit", degree)
		}
		slot, _, _ := tab.lookup(a)
		tab.store(slot, a, va)
		if _, v, hit := tab.lookup(a); !hit || v != va {
			t.Fatalf("degree %d: stored key: hit=%v value=%v, want %v", degree, hit, v, va)
		}
		if _, _, hit := tab.lookup(b); hit {
			t.Fatalf("degree %d: colliding key hit on the other key's entry", degree)
		}
		slot, _, _ = tab.lookup(b)
		tab.store(slot, b, vb)
		if _, v, hit := tab.lookup(b); !hit || v != vb {
			t.Fatalf("degree %d: last writer: hit=%v value=%v, want %v", degree, hit, v, vb)
		}
		if _, _, hit := tab.lookup(a); hit {
			t.Fatalf("degree %d: evicted key still hits", degree)
		}
	}
}

// TestMemoNeverReturnsAnotherKeysValue stores and looks up random keys
// from a pool several times larger than the table, so most slots see
// collisions, and checks every hit against the value last stored under
// the same key words.
func TestMemoNeverReturnsAnotherKeysValue(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kw := range []int{2, 6} {
		tab := newMemoTable(kw)
		pool := make([][]uint64, 4*memoSlots)
		for i := range pool {
			// Longer keys also differ only in their neighbour words.
			v, n := uint64(i), uint64(0)
			if kw > 2 {
				v, n = uint64(i%512), uint64(i/512)
			}
			pool[i] = memoKey(kw, v, n)
		}
		want := make(map[[maxKeyWords]uint64]memoVal)
		hits := 0
		for step := 0; step < 50000; step++ {
			k := rng.Intn(len(pool))
			var id [maxKeyWords]uint64
			copy(id[:], pool[k])
			slot, v, hit := tab.lookup(pool[k])
			if hit {
				hits++
				if w, ok := want[id]; !ok || v != w {
					t.Fatalf("kw %d: key %x hit with %v, last stored %v (stored=%v)", kw, pool[k], v, w, ok)
				}
				continue
			}
			v = newMemoVal(geom.Rect{X: k, Y: step % 4096, W: 1 + step%7, H: 1 + k%5}, step%2 == 0)
			tab.store(slot, pool[k], v)
			want[id] = v
		}
		if hits == 0 || hits == 50000 {
			t.Fatalf("kw %d: weak coverage: %d hits", kw, hits)
		}
	}
}

package fti

import (
	"fmt"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// Incremental maintains the fault tolerance index of a placement
// across single- and pair-move perturbations, so the stage-2 annealer
// prices a move by re-evaluating only the moved modules and the
// modules whose time spans conflict with them, instead of all Nm.
//
// The cache is keyed per module: module j's relocatability analysis
// depends only on the array, j's own rectangle, and the rectangles of
// the modules active during j's span (its span-overlap neighbours).
// Moving module i therefore invalidates exactly {i} ∪ adj(i); every
// other module's knocked-out rectangle is reused verbatim. When the
// array (the placement's bounding box) changes, every module's
// analysis is over a different matrix and the whole cache is rebuilt.
//
// Coverage is aggregated through per-cell knockout counters: knock[c]
// counts the modules whose analysis marks array cell c uncovered, and
// Covered is the number of cells with a zero count — identical, cell
// for cell, to ComputeOn's CoveredMap (the differential tests assert
// exact equality over long random move sequences).
//
// The speculation protocol mirrors the annealing kernel: mutate the
// placement, call Apply with the new array and the dirty module set,
// then either Commit (keep) or Revert (restore the placement first,
// then call Revert — the previous analysis is reinstated from the
// saved entries without re-evaluating anything).
//
// On top of the dirty-set reuse sits a per-module memo: module j's
// analysis is a pure function of (array, j's rectangle, the
// rectangles of j's span-overlap neighbours), so its result is cached
// under that exact key and never needs invalidation. Low-temperature
// annealing revisits configurations — a rejected proposal displaces a
// module by a cell and bounces back, and a bounding-box change that is
// reverted restores an array seen before — so a share of dirty-set
// re-evaluations and full rebuilds are lookups. The memo is
// direct-mapped with a fixed number of slots per module: a colliding
// key overwrites the slot, which costs at most a repeated evaluation.
type Incremental struct {
	p   *place.Placement
	adj [][]int // span-overlap adjacency, index-aligned with modules

	array     geom.Rect
	knock     []int32     // per-cell knockout counters, array-local
	uncovered []geom.Rect // per-module knocked-out cells, array-local
	reloc     []bool      // per-module relocatability
	covered   int

	// Staged speculation (one level deep).
	staged     bool
	fullSwap   bool // array changed: whole state saved aside
	savedArray geom.Rect
	savedCover int
	savedKnock []int32
	savedUncov []geom.Rect // whole arrays under fullSwap
	savedReloc []bool
	dirty      []int       // modules re-evaluated by the staged Apply
	undoUncov  []geom.Rect // dirty modules' prior analyses, without fullSwap
	undoReloc  []bool

	// Spare buffers recycled across full rebuilds.
	spareKnock []int32
	spareUncov []geom.Rect
	spareReloc []bool

	// Per-module memo of the pure analysis function.
	memo   []memoTable
	memoOK []bool // adjacency degree fits the key; coordinates checked per key
	keyBuf [maxKeyWords]uint64

	scratch *moduleEval

	evals    int64 // per-module evaluations performed
	hits     int64 // per-module evaluations avoided by the caches
	rebuilds int64 // Apply calls that changed the array
}

// A memo key captures every input of one module's relocatability
// analysis as a short run of uint64 words: word 0 packs the array
// rectangle, word 1 the module's own configuration, and one further
// word per span-overlap neighbour (footprints and spans are
// immutable, so positions and orientations are the whole story). The
// run length is fixed per module at 2+degree, bounded by maxKeyWords.
//
// A memo value is one module's analysis: the uncovered rectangle in
// 16-bit fields and the relocatability bit. The rectangle is
// array-local and memoKeyFor only accepts arrays whose fields fit 16
// signed bits, so the fields always fit. Ten bytes keep a module's
// sparse table compact: a 40-byte geom.Rect and bool measurably slowed
// a loop that revisits the same keys (BenchmarkStage2IterMove).
type memoVal struct {
	x, y, w, h int16
	reloc      bool
}

func newMemoVal(u geom.Rect, reloc bool) memoVal {
	return memoVal{int16(u.X), int16(u.Y), int16(u.W), int16(u.H), reloc}
}

func (v memoVal) uncovered() geom.Rect {
	return geom.Rect{X: int(v.x), Y: int(v.y), W: int(v.w), H: int(v.h)}
}

// maxKeyWords bounds the memo key length: one array word, one own
// configuration, up to 12 neighbours.
const maxKeyWords = 14

// memoSlots is the number of slots in each module's memo, a power of
// two. Most misses in a stage-2 run are configurations never seen
// before, not evictions, so a larger table buys few hits for its
// memory; at 1024 slots, keys that a tight loop of rejected moves keeps
// revisiting already shared slots and evicted each other.
const memoSlots = 2048

// memoTable is a direct-mapped cache of one module's analysis: a key
// lives only in the slot its hash selects, and storing a key
// overwrites whatever the slot held. Lookups compare the whole key, so
// a collision can only cost an evaluation, never return another key's
// value. An unused slot's key words are all zero, which no real key
// matches (packCfg sets bit 63 of word 1).
type memoTable struct {
	keyWords int       // words per key: 2 + adjacency degree
	keys     []uint64  // slot i holds keys[i*keyWords : (i+1)*keyWords]
	vals     []memoVal // index-aligned with the slots
}

func newMemoTable(keyWords int) memoTable {
	return memoTable{
		keyWords: keyWords,
		keys:     make([]uint64, memoSlots*keyWords),
		vals:     make([]memoVal, memoSlots),
	}
}

// hashKey mixes the key words splitmix64-style.
func hashKey(key []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range key {
		h ^= w
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	return h
}

func equalKey(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the slot key maps to and, when the slot holds key,
// the cached value.
func (t *memoTable) lookup(key []uint64) (slot int, v memoVal, hit bool) {
	slot = int(hashKey(key) & (memoSlots - 1))
	if equalKey(t.keys[slot*t.keyWords:(slot+1)*t.keyWords], key) {
		return slot, t.vals[slot], true
	}
	return slot, memoVal{}, false
}

// store caches v under key in key's slot (as returned by lookup),
// evicting whatever key the slot held.
func (t *memoTable) store(slot int, key []uint64, v memoVal) {
	copy(t.keys[slot*t.keyWords:(slot+1)*t.keyWords], key)
	t.vals[slot] = v
}

// packCfg encodes module i's position and orientation. Bit 63 marks
// the slot as used so an empty slot can never collide with a real
// configuration; 31 bits per coordinate cover every realistic array.
func packCfg(p *place.Placement, i int) (uint64, bool) {
	x, y := p.Pos[i].X, p.Pos[i].Y
	if x < 0 || y < 0 || x >= 1<<31 || y >= 1<<31 {
		return 0, false
	}
	rot := uint64(0)
	if p.Rot[i] {
		rot = 1
	}
	return 1<<63 | uint64(x)<<32 | uint64(y)<<1 | rot, true
}

// fits16 reports whether v can be stored in 16 bits without aliasing
// another value; arrays are placement bounding boxes (possibly margin-
// widened), so this never fails in practice.
func fits16(v int) bool { return v >= -1<<15 && v < 1<<15 }

// memoKeyFor builds module mi's memo key into the shared key buffer;
// ok is false when the configuration cannot be encoded (oversized
// coordinates). The returned slice aliases inc.keyBuf and is only
// valid until the next call.
func (inc *Incremental) memoKeyFor(mi int) ([]uint64, bool) {
	a := inc.array
	if !fits16(a.X) || !fits16(a.Y) || !fits16(a.W) || !fits16(a.H) {
		return nil, false
	}
	key := inc.keyBuf[:len(inc.adj[mi])+2]
	key[0] = uint64(uint16(a.X))<<48 | uint64(uint16(a.Y))<<32 |
		uint64(uint16(a.W))<<16 | uint64(uint16(a.H))
	c, ok := packCfg(inc.p, mi)
	if !ok {
		return nil, false
	}
	key[1] = c
	for t, j := range inc.adj[mi] {
		if c, ok = packCfg(inc.p, j); !ok {
			return nil, false
		}
		key[t+2] = c
	}
	return key, true
}

// evalModule returns module mi's analysis for the current array and
// placement, consulting the memo first.
func (inc *Incremental) evalModule(mi int) (geom.Rect, bool) {
	if inc.memoOK[mi] {
		if key, ok := inc.memoKeyFor(mi); ok {
			t := &inc.memo[mi]
			slot, v, hit := t.lookup(key)
			if hit {
				inc.hits++
				return v.uncovered(), v.reloc
			}
			inc.evals++
			u, r := inc.scratch.eval(inc.p, inc.adj[mi], mi)
			t.store(slot, key, newMemoVal(u, r))
			return u, r
		}
	}
	inc.evals++
	return inc.scratch.eval(inc.p, inc.adj[mi], mi)
}

// NewIncremental builds the incremental evaluator for p on its current
// bounding box, evaluating every module once.
func NewIncremental(p *place.Placement) *Incremental {
	inc := &Incremental{
		p:         p,
		adj:       p.Conflicts(),
		uncovered: make([]geom.Rect, len(p.Modules)),
		reloc:     make([]bool, len(p.Modules)),
		memo:      make([]memoTable, len(p.Modules)),
		memoOK:    make([]bool, len(p.Modules)),
	}
	for i := range p.Modules {
		if kw := len(inc.adj[i]) + 2; kw <= maxKeyWords {
			inc.memoOK[i] = true
			inc.memo[i] = newMemoTable(kw)
		}
	}
	inc.rebuild(p.BoundingBox())
	return inc
}

// Covered returns the number of C-covered cells on the current array;
// it equals ComputeOn(p, Array()).Covered.
func (inc *Incremental) Covered() int { return inc.covered }

// Total returns the cell count of the current array.
func (inc *Incremental) Total() int { return inc.array.Cells() }

// Array returns the array the index is currently computed over.
func (inc *Incremental) Array() geom.Rect { return inc.array }

// FTI returns the fault tolerance index, computed with the same
// floating-point expression as Result.FTI.
func (inc *Incremental) FTI() float64 {
	if inc.Total() == 0 {
		return 0
	}
	return float64(inc.covered) / float64(inc.Total())
}

// Stats reports the cumulative per-module evaluation counts: evals is
// the number of module analyses actually run, hits the number skipped
// because their inputs were unchanged. The cache hit rate is
// hits/(evals+hits).
func (inc *Incremental) Stats() (evals, hits int64) { return inc.evals, inc.hits }

// Rebuilds reports how many Apply calls changed the array and so
// priced every module again (from the memo where it holds the key).
func (inc *Incremental) Rebuilds() int64 { return inc.rebuilds }

// Apply re-evaluates the placement after a mutation: the placement
// must already reflect the move, array must be its new bounding box,
// and dirty must contain (at least) every module whose inputs changed,
// without duplicates. The previous analysis is retained until Commit
// or Revert; Apply panics if a speculation is already staged.
func (inc *Incremental) Apply(array geom.Rect, dirty []int) {
	if inc.staged {
		panic("fti: Apply while a speculation is staged")
	}
	inc.staged = true
	if array != inc.array {
		// The matrix every module is analysed on changed: full rebuild,
		// with the old state saved aside wholesale.
		inc.fullSwap = true
		inc.rebuilds++
		inc.savedArray = inc.array
		inc.savedCover = inc.covered
		inc.savedKnock = inc.knock
		inc.savedUncov = inc.uncovered
		inc.savedReloc = inc.reloc
		inc.knock = inc.spareKnock
		inc.uncovered = inc.spareUncov
		inc.reloc = inc.spareReloc
		if inc.uncovered == nil {
			inc.uncovered = make([]geom.Rect, len(inc.p.Modules))
			inc.reloc = make([]bool, len(inc.p.Modules))
		}
		inc.rebuild(array)
		return
	}
	inc.fullSwap = false
	inc.savedCover = inc.covered
	if len(dirty) > 0 {
		inc.ensureScratch()
	}
	inc.dirty = append(inc.dirty[:0], dirty...)
	inc.undoUncov = inc.undoUncov[:0]
	inc.undoReloc = inc.undoReloc[:0]
	for _, mi := range dirty {
		old := inc.uncovered[mi]
		inc.undoUncov = append(inc.undoUncov, old)
		inc.undoReloc = append(inc.undoReloc, inc.reloc[mi])
		u, r := inc.evalModule(mi)
		// Most re-priced modules keep their rectangle; removing and
		// re-adding it would leave the counters as they are.
		if u != old {
			inc.knockRemove(old)
			inc.knockAdd(u)
		}
		inc.uncovered[mi], inc.reloc[mi] = u, r
	}
	inc.hits += int64(len(inc.p.Modules) - len(dirty))
}

// Commit keeps the staged analysis, releasing the saved one.
func (inc *Incremental) Commit() {
	if !inc.staged {
		panic("fti: Commit without Apply")
	}
	inc.staged = false
	if inc.fullSwap {
		inc.spareKnock = inc.savedKnock
		inc.spareUncov = inc.savedUncov
		inc.spareReloc = inc.savedReloc
	}
}

// Revert discards the staged analysis and reinstates the saved one.
// The caller must restore the placement to its pre-move configuration
// before the next Apply.
func (inc *Incremental) Revert() {
	if !inc.staged {
		panic("fti: Revert without Apply")
	}
	inc.staged = false
	if inc.fullSwap {
		inc.spareKnock = inc.knock
		inc.spareUncov = inc.uncovered
		inc.spareReloc = inc.reloc
		inc.array = inc.savedArray
		inc.covered = inc.savedCover
		inc.knock = inc.savedKnock
		inc.uncovered = inc.savedUncov
		inc.reloc = inc.savedReloc
		return
	}
	for i := len(inc.dirty) - 1; i >= 0; i-- {
		mi := inc.dirty[i]
		if inc.uncovered[mi] != inc.undoUncov[i] {
			inc.knockRemove(inc.uncovered[mi])
			inc.knockAdd(inc.undoUncov[i])
		}
		inc.uncovered[mi] = inc.undoUncov[i]
		inc.reloc[mi] = inc.undoReloc[i]
	}
	if inc.covered != inc.savedCover {
		panic(fmt.Sprintf("fti: revert mismatch: covered %d != saved %d",
			inc.covered, inc.savedCover))
	}
}

// rebuild evaluates every module from scratch on the given array.
func (inc *Incremental) rebuild(array geom.Rect) {
	inc.array = array
	total := array.Cells()
	if cap(inc.knock) < total {
		inc.knock = make([]int32, total)
	} else {
		inc.knock = inc.knock[:total]
		for i := range inc.knock {
			inc.knock[i] = 0
		}
	}
	inc.covered = total
	if total > 0 && len(inc.p.Modules) > 0 {
		inc.ensureScratch()
		for mi := range inc.p.Modules {
			inc.uncovered[mi], inc.reloc[mi] = inc.evalModule(mi)
			inc.knockAdd(inc.uncovered[mi])
		}
	} else {
		for mi := range inc.uncovered {
			inc.uncovered[mi] = geom.Rect{}
			inc.reloc[mi] = false
		}
	}
}

// ensureScratch (re)sizes the shared evaluation buffers for the
// current array. The grid is reallocated only when the dimensions
// change; an origin-only array shift reuses it.
func (inc *Incremental) ensureScratch() {
	if inc.scratch == nil {
		inc.scratch = newModuleEval(inc.array)
		return
	}
	if inc.scratch.g.W() != inc.array.W || inc.scratch.g.H() != inc.array.H {
		inc.scratch.g.Resize(inc.array.W, inc.array.H)
	}
	inc.scratch.array = inc.array
}

// knockAdd and knockRemove walk the rows of an array-local rectangle
// of knocked-out cells, keeping covered in step with the counters.
func (inc *Incremental) knockAdd(r geom.Rect) {
	for y := r.Y; y < r.MaxY(); y++ {
		row := inc.knock[y*inc.array.W+r.X : y*inc.array.W+r.MaxX()]
		for c := range row {
			if row[c] == 0 {
				inc.covered--
			}
			row[c]++
		}
	}
}

func (inc *Incremental) knockRemove(r geom.Rect) {
	for y := r.Y; y < r.MaxY(); y++ {
		row := inc.knock[y*inc.array.W+r.X : y*inc.array.W+r.MaxX()]
		for c := range row {
			row[c]--
			if row[c] == 0 {
				inc.covered++
			}
		}
	}
}

package spill

import (
	"math/bits"
	"slices"
	"sync"

	"parajoin/internal/rel"
)

// arenaRun is a spiller's in-memory run: the rows added since the last
// seal, their values copied into arena chunks the spiller owns, arity
// values per row, with no pointers for the garbage collector to scan.
// Owning the values is what lets a Sorter rewrite rows in place and lets
// any caller reuse the row it added — the caller's rows may be shared (a
// workload's base relation, say) and are never written. Chunks fill in
// order and a row never straddles two, so a run grows without copying and
// wastes at most one partly filled chunk; a sealed run's chunks are reused
// by the next run.
type arenaRun struct {
	arity  int
	rows   int
	chunks [][]int64 // chunks[:cur+1] hold the rows; later ones are empty spares
	cur    int
	lo, hi []int64 // per-column range of the run last sorted
}

// Arena chunks double from arenaFirstChunk values up to arenaMaxChunk:
// small runs stay small, and full chunks are 32 KiB, the largest size
// class the allocator recycles without going to the page heap. arenaSizes
// is the number of sizes on that ramp, both ends included.
const (
	arenaFirstChunk = 64
	arenaMaxChunk   = 4096
	arenaSizes      = 7
)

func newArenaRun(arity int) arenaRun {
	first := newChunk(max(arenaFirstChunk, arity))
	return arenaRun{arity: arity, chunks: [][]int64{first}}
}

// push copies rows rows, laid out row-major in vals, into the run with one
// bulk copy per chunk they fill.
func (r *arenaRun) push(vals []int64, rows int) {
	r.rows += rows
	a := r.arity
	for len(vals) > 0 {
		c := r.chunks[r.cur]
		n := min(len(vals), (cap(c)-len(c))/a*a)
		if n == 0 {
			if r.cur++; r.cur == len(r.chunks) {
				r.chunks = append(r.chunks, newChunk(max(min(2*cap(c), arenaMaxChunk), a)))
			}
			continue
		}
		r.chunks[r.cur] = append(c, vals[:n]...)
		vals = vals[n:]
	}
}

// chunkPools recycle arena chunks between runs, one pool per size on the
// doubling ramp: chunkPools[i] holds empty chunks of arenaFirstChunk<<i
// values. A run whose rows have all been packed out (Sorter.FinishPacked)
// hands its chunks back, and a run takes each chunk it grows by from the
// pool of its size before it makes one, which it would have to zero.
var chunkPools [arenaSizes]sync.Pool

// chunkPool returns the pool for chunks of size values, or nil for a size
// off the ramp (a row wider than the first chunk).
func chunkPool(size int) *sync.Pool {
	i := bits.Len(uint(size/arenaFirstChunk)) - 1
	if i < 0 || i >= len(chunkPools) || arenaFirstChunk<<i != size {
		return nil
	}
	return &chunkPools[i]
}

// newChunk returns an empty chunk of capacity size.
func newChunk(size int) []int64 {
	if p := chunkPool(size); p != nil {
		if c, ok := p.Get().(*[]int64); ok {
			return *c
		}
	}
	return make([]int64, 0, size)
}

// release hands the run's chunks to chunkPools. Nothing may view the
// run's rows any more, and the run must not be used after.
func (r *arenaRun) release() {
	for _, c := range r.chunks {
		if p := chunkPool(cap(c)); p != nil {
			c = c[:0]
			p.Put(&c)
		}
	}
	*r = arenaRun{}
}

func (r *arenaRun) reset() {
	for i := range r.chunks[:r.cur+1] {
		r.chunks[i] = r.chunks[i][:0]
	}
	r.cur, r.rows = 0, 0
}

// appendFlat appends the rows' values, in order, to out.
func (r *arenaRun) appendFlat(out []int64) []int64 {
	out = slices.Grow(out, r.rows*r.arity)
	for _, c := range r.chunks[:r.cur+1] {
		out = append(out, c...)
	}
	return out
}

// appendViews appends the rows in order to out as capacity-clamped tuples
// over the arena: appending to one reallocates instead of clobbering its
// neighbour.
func (r *arenaRun) appendViews(out []rel.Tuple) []rel.Tuple {
	out = slices.Grow(out, r.rows)
	if a := r.arity; a > 0 {
		for _, c := range r.chunks[:r.cur+1] {
			for i := 0; i < len(c); i += a {
				out = append(out, c[i:i+a:i+a])
			}
		}
	} else {
		for range r.rows {
			out = append(out, rel.Tuple{})
		}
	}
	return out
}

// packed sorts the rows and returns them packed, as sortPacked lays them
// out, in a buffer of their own: sortPacked's buffer, taken from the
// scratch pool, unless it is more than twice the rows' size (it is then
// left in the pool and the words copied out). The arena's rows are left
// unspecified.
func (r *arenaRun) packed() ([]uint64, rel.KeyPacker) {
	sc := scratchPool.Get().(*sortScratch)
	defer scratchPool.Put(sc)
	words, p := r.sortPacked(sc)
	if cap(words) > 2*len(words) {
		return slices.Clone(words), p
	}
	sc.keys = nil
	return words, p
}

// sortPacked sorts the rows into sc.keys, packed p.Words() words per row
// in order, and returns them with the layout p that decodes them. A row
// that fits one word is its own radix-sorted key; wider rows are sorted in
// the arena and packed in order. The arena's rows are left unspecified.
func (r *arenaRun) sortPacked(sc *sortScratch) ([]uint64, rel.KeyPacker) {
	if r.arity == 0 {
		sc.keys = slices.Grow(sc.keys[:0], r.rows)[:r.rows]
		clear(sc.keys)
		return sc.keys, rel.NewRowPacker(nil, nil)
	}
	p := r.layout()
	w := p.Words()
	if w == 1 {
		return r.sortKeys(sc, &p), p
	}
	r.sortRows()
	sc.keys = slices.Grow(sc.keys[:0], r.rows*w)[:r.rows*w]
	k := 0
	for _, c := range r.chunks[:r.cur+1] {
		for i := 0; i < len(c); i += r.arity {
			p.PackInto(sc.keys[k:k+w], c[i:i+r.arity])
			k += w
		}
	}
	return sc.keys, p
}

// layout sets lo and hi to the rows' per-column ranges (zero for an empty
// run) and lays the row out for them.
func (r *arenaRun) layout() rel.KeyPacker {
	a := r.arity
	r.lo, r.hi = slices.Grow(r.lo[:0], a)[:a], slices.Grow(r.hi[:0], a)[:a]
	clear(r.lo)
	clear(r.hi)
	if r.rows > 0 {
		filled := r.chunks[:r.cur+1]
		copy(r.lo, filled[0][:a])
		copy(r.hi, filled[0][:a])
		for _, c := range filled {
			for i := 0; i < len(c); i += a {
				for j, v := range c[i : i+a] {
					r.lo[j], r.hi[j] = min(r.lo[j], v), max(r.hi[j], v)
				}
			}
		}
	}
	return rel.NewRowPacker(r.lo, r.hi)
}

// sortRows sorts rows too wide for one key: they are copied out flat,
// their offsets sorted by comparing the rows, and the rows copied back in
// that order.
func (r *arenaRun) sortRows() {
	a := r.arity
	flat := r.appendFlat(make([]int64, 0, r.rows*a))
	offs := make([]int, r.rows)
	for i := range offs {
		offs[i] = i * a
	}
	slices.SortFunc(offs, func(x, y int) int { return slices.Compare(flat[x:x+a], flat[y:y+a]) })
	for _, c := range r.chunks[:r.cur+1] {
		for i := 0; i < len(c); i += a {
			copy(c[i:i+a], flat[offs[0]:])
			offs = offs[1:]
		}
	}
}

// sortKeys packs every row under the one-word layout p into sc.keys and
// sorts the keys there, growing sc's buffers to the run's length.
func (r *arenaRun) sortKeys(sc *sortScratch, p *rel.KeyPacker) []uint64 {
	a := r.arity
	sc.keys = slices.Grow(sc.keys[:0], r.rows)[:r.rows]
	sc.tmp = slices.Grow(sc.tmp[:0], r.rows)[:r.rows]
	k := 0
	for _, c := range r.chunks[:r.cur+1] {
		for i := 0; i < len(c); i += a {
			sc.keys[k] = p.Pack(c[i : i+a])
			k++
		}
	}
	sc.radixSort(p.Width())
	return sc.keys
}

// sortScratch is what one packed sort works in: the key buffer, its radix
// ping-pong twin (8 B per row each) and the digit histogram. Sorts borrow
// one from scratchPool instead of owning it, so the buffers follow the
// sorts that are running rather than the sorters that exist, and a run of
// similar sorts reuses one allocation.
type sortScratch struct {
	keys, tmp []uint64
	count     [1 << radixDigitBits]int
}

var scratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// radixCutoff is the run length below which a comparison sort of the keys
// beats the radix sort's per-pass histogram clearing and prefix sums.
const radixCutoff = 256

// radixDigitBits bounds the bits per counting pass: 2 048 buckets keep the
// histogram in L1.
const radixDigitBits = 11

// radixSort sorts sc.keys, whose set bits all lie in the low width bits:
// an LSD radix sort in ceil(width/11) passes of equal digit width,
// ping-ponging through sc.tmp (as long as sc.keys). A pass whose digit is
// the same for every key moves nothing and is skipped. The sorted keys end
// in sc.keys, whichever buffer that now is.
func (sc *sortScratch) radixSort(width int) {
	keys, tmp := sc.keys, sc.tmp
	if len(keys) < radixCutoff {
		slices.Sort(keys)
		return
	}
	passes := (width + radixDigitBits - 1) / radixDigitBits
	if passes == 0 {
		return
	}
	digit := uint((width + passes - 1) / passes)
	mask := uint64(1)<<digit - 1
	for shift := uint(0); shift < uint(width); shift += digit {
		counts := sc.count[:mask+1]
		clear(counts)
		for _, k := range keys {
			counts[k>>shift&mask]++
		}
		if counts[keys[0]>>shift&mask] == len(keys) {
			continue
		}
		sum := 0
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> shift & mask
			tmp[counts[d]] = k
			counts[d]++
		}
		keys, tmp = tmp, keys
	}
	sc.keys, sc.tmp = keys, tmp
}

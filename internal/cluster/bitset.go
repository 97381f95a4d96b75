package cluster

import (
	"math/bits"
	"slices"
)

// bitset is a two-level bitmap: words holds one bit per id, sum one bit per
// non-zero word. first() and next() therefore scan the (tiny) summary level
// instead of all words. Over machine ids it keeps "lowest-index available
// machine" O(1)-ish at 10k machines — the indexed up-machine set that
// replaces the full c.machines scans of earlier engines. Over job ids it
// holds the jobs owed guaranteed tokens (Cluster.owedTracked, owedUntracked).
type bitset struct {
	words []uint64
	sum   []uint64
	// hint is a first() cursor: the invariant is that no bit below hint is
	// set, so a scan can start there instead of at zero. set() lowers it,
	// first() advances it past the zeros it just proved. Placing an arrival
	// burst of k tasks is then one forward pass over the machine words
	// instead of k scans from the origin.
	hint int
}

// init sizes the set for n bits and fills it (all true or all false),
// keeping the backing arrays across reuse.
func (b *bitset) init(n int, all bool) {
	b.hint = 0
	nw := (n + 63) / 64
	ns := (nw + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
		b.sum = make([]uint64, ns)
	}
	b.words = b.words[:nw]
	b.sum = b.sum[:ns]
	if !all {
		clear(b.words)
		clear(b.sum)
		return
	}
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		b.words[nw-1] = (uint64(1) << tail) - 1
	}
	clear(b.sum)
	for i := range b.words {
		if b.words[i] != 0 {
			b.sum[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// grow extends the set to hold at least n bits, keeping its bits; the new
// ones are clear. It reslices within the backing arrays' capacity, so a set
// that held n bits before a shrinking init grows back without allocating.
func (b *bitset) grow(n int) {
	nw := (n + 63) / 64
	if nw <= len(b.words) {
		return
	}
	old := len(b.words)
	b.words = slices.Grow(b.words, nw-old)[:nw]
	clear(b.words[old:])
	ns := (nw + 63) / 64
	old = len(b.sum)
	b.sum = slices.Grow(b.sum, ns-old)[:ns]
	clear(b.sum[old:])
}

//jockey:hotpath
func (b *bitset) set(i int) {
	w := i >> 6
	b.words[w] |= 1 << (uint(i) & 63)
	b.sum[w>>6] |= 1 << (uint(w) & 63)
	if i < b.hint {
		b.hint = i
	}
}

//jockey:hotpath
func (b *bitset) clear(i int) {
	w := i >> 6
	b.words[w] &^= 1 << (uint(i) & 63)
	if b.words[w] == 0 {
		b.sum[w>>6] &^= 1 << (uint(w) & 63)
	}
}

//jockey:hotpath
func (b *bitset) get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// first returns the lowest set bit, or -1 when the set is empty. The scan
// starts at the hint cursor (everything below it is provably zero) and
// leaves the cursor on the bit it found — or past the end when the set is
// empty — so a placement sweep that repeatedly asks for the lowest free
// machine walks the words once, not once per ask. clear() never has to
// touch the cursor: clearing bits cannot make anything below it set.
//
//jockey:hotpath
func (b *bitset) first() int {
	for si := b.hint >> 12; si < len(b.sum); si++ {
		sw := b.sum[si]
		if sw == 0 {
			continue
		}
		w := si<<6 + bits.TrailingZeros64(sw)
		i := w<<6 + bits.TrailingZeros64(b.words[w])
		b.hint = i
		return i
	}
	b.hint = len(b.words) << 6
	return -1
}

// next returns the lowest set bit at or above i, or -1 when there is none.
// Unlike first it leaves the hint cursor alone, so a walk may set and clear
// bits behind it.
//
//jockey:hotpath
func (b *bitset) next(i int) int {
	w := i >> 6
	if w >= len(b.words) {
		return -1
	}
	if m := b.words[w] >> (uint(i) & 63); m != 0 {
		return i + bits.TrailingZeros64(m)
	}
	w++
	for si := w >> 6; si < len(b.sum); si++ {
		sw := b.sum[si]
		if si == w>>6 {
			sw &= ^uint64(0) << (uint(w) & 63)
		}
		if sw == 0 {
			continue
		}
		w = si<<6 + bits.TrailingZeros64(sw)
		return w<<6 + bits.TrailingZeros64(b.words[w])
	}
	return -1
}

// selectK returns the k-th (0-based) set bit in index order, or -1 when
// fewer than k+1 bits are set. Used by the machine-failure sampler, which
// picks a uniformly random up machine: the k-th set bit of the up set is
// exactly the k-th entry of the up-machine slice earlier engines rebuilt per
// failure event.
func (b *bitset) selectK(k int) int {
	for wi, w := range b.words {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1 // drop lowest set bit
		}
		return wi<<6 + bits.TrailingZeros64(w)
	}
	return -1
}

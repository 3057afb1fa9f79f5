package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Owner picks which member owns one partition, by rendezvous (highest-
// random-weight) hashing over the member NAMES. Keying on the stable name
// rather than a join-order id means a member that restarts — or is replaced
// by a new process started with the same -node-name and data directory —
// deterministically re-owns exactly its old slice, which is what makes the
// rejoin fast path (skip re-transfer by checksum) actually fire. Rendezvous
// hashing also moves only ~1/N of the slots when membership changes by one,
// unlike mod-N placement which reshuffles almost everything.
//
// members must be non-empty; it is not mutated.
func Owner(members []string, relName string, slot int) string {
	best, bestScore := "", uint64(0)
	for _, m := range members {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s\x00%s\x00%d", m, relName, slot)
		if s := mix64(h.Sum64()); best == "" || s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best
}

// mix64 is a 64-bit finalizer (splitmix64's) applied on top of FNV. FNV's
// last step is one multiply, which leaves the score's high bits dominated
// by the long common prefix (member and relation name): a short varying
// suffix — the slot digit — moves the score by at most ~2^48, so one member
// wins every slot of a small grid. The finalizer avalanches every input bit
// across the word, restoring rendezvous hashing's ~1/N balance even on
// 8-slot relations.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SlotsFor returns the slots of one relation a member owns under the given
// membership, sorted ascending — the member's fragment of that relation.
func SlotsFor(members []string, relName string, slots int, member string) []int {
	var out []int
	for s := 0; s < slots; s++ {
		if Owner(members, relName, s) == member {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

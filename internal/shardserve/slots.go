package shardserve

import "saqp/internal/obs"

// DefaultSlots is the default size of the hash-slot space. Small
// enough to print, large enough that four shards get sixteen slots
// each; the slot count is a routing granularity, not a shard limit.
const DefaultSlots = 64

// Fingerprint hashes a plan-cache key (serve.CacheKey) with FNV-64a.
// Routing on the engines' own cache identity means two queries that
// share a cache entry always route to the same shard, so routing never
// splits a shard's working set.
func Fingerprint(cacheKey string) uint64 { return obs.FNV64a(cacheKey) }

// SlotOf maps a fingerprint onto the slot space.
func SlotOf(fp uint64, slots int) int {
	if slots <= 0 {
		slots = DefaultSlots
	}
	return int(fp % uint64(slots))
}

// OwnerOf maps a slot to its owning shard: contiguous ranges, with the
// remainder slots spread one-per-shard from the front (the classic
// s*shards/slots partition).
func OwnerOf(slot, slots, shards int) int {
	if slots <= 0 || shards <= 0 {
		return 0
	}
	return slot * shards / slots
}

// SlotRange returns the inclusive [lo, hi] slot range shard owns under
// OwnerOf's partition.
func SlotRange(shard, slots, shards int) (lo, hi int) {
	if slots <= 0 || shards <= 0 {
		return 0, 0
	}
	lo = (shard*slots + shards - 1) / shards
	hi = ((shard+1)*slots+shards-1)/shards - 1
	return lo, hi
}

package sim

// Gamma is SplitMix64's increment, 2^64/φ rounded to odd: the step of
// RNG's state, and a multiplier that spreads small integers over 64 bits.
const Gamma = 0x9e3779b97f4a7c15

// FNV32a returns the 32-bit FNV-1a hash of b: hash/fnv's New32a without the
// hash.Hash32 allocation or a []byte(s) copy.
//
//saqp:hotpath
func FNV32a[B string | []byte](b B) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}

// FNV64a returns the 64-bit FNV-1a hash of b: hash/fnv's New64a without the
// hash.Hash64 allocation or a []byte(s) copy.
//
//saqp:hotpath
func FNV64a[B string | []byte](b B) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 is one SplitMix64 step from state x: the value RNG.Uint64 returns
// from that state, and a stateless bit mixer.
//
//saqp:hotpath
func Mix64(x uint64) uint64 {
	x += Gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

package main

// deriveSeed turns the benchmark's --seed into the seed of one named input
// (FNV-1a of the name mixed into the seed, then a splitmix64 finalizer), so
// each input gets its own stream and the program sees only the result.
func deriveSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	x := h ^ uint64(seed)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	s := int64(x &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

package core

// TuplesInLargeGroups returns, exactly, how many tuples of the sorted
// full-granularity key column live in groups of at least minRows tuples when
// grouped at granularity g ≤ fullBits.
func TuplesInLargeGroups(keys []uint64, fullBits, g int, minRows int64) int64 {
	shift := uint(fullBits - g)
	var sum, run int64
	flush := func() {
		if run >= minRows {
			sum += run
		}
		run = 0
	}
	for i := range keys {
		if i > 0 && keys[i]>>shift != keys[i-1]>>shift {
			flush()
		}
		run++
	}
	flush()
	return sum
}

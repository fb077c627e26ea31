package textnorm

// EditDistance computes the Levenshtein distance between the two strings,
// operating on runes. It uses the standard two-row dynamic program with
// O(min(len(a), len(b))) space.
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	// rb is now the shorter string; the DP rows have len(rb)+1 entries.
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditDistanceAtMost reports whether EditDistance(a, b) <= k, in O(k*n) time
// by restricting the dynamic program to a diagonal band of width 2k+1. This
// is the hot-path form used by the fuzzy matcher's typo tolerance.
func EditDistanceAtMost(a, b string, k int) bool {
	if k < 0 {
		return false
	}
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(ra)-len(rb) > k {
		return false
	}
	if len(rb) == 0 {
		return len(ra) <= k
	}
	const inf = 1 << 30
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		if j <= k {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= len(ra); i++ {
		lo := i - k
		if lo < 1 {
			lo = 1
		}
		hi := i + k
		if hi > len(rb) {
			hi = len(rb)
		}
		if lo > hi {
			return false
		}
		if lo == 1 {
			if i <= k {
				cur[0] = i
			} else {
				cur[0] = inf
			}
		}
		if lo > 1 {
			cur[lo-1] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			v := prev[j-1] + cost
			if prev[j]+1 < v {
				v = prev[j] + 1
			}
			if cur[j-1]+1 < v {
				v = cur[j-1] + 1
			}
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if hi < len(rb) {
			cur[hi+1] = inf
		}
		if rowMin > k {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)] <= k
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

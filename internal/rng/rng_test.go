package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling children produced identical first output")
	}
	// Splitting must be reproducible from the same parent seed.
	parent2 := New(7)
	d1 := parent2.Split()
	if c1.state == 0 || d1.Uint64() == 0 {
		// d1 already consumed one output above? No: c1 consumed, d1 fresh.
	}
	e := New(7).Split()
	f := New(7).Split()
	if e.Uint64() != f.Uint64() {
		t.Fatal("Split is not deterministic")
	}
}

func TestSplitNCount(t *testing.T) {
	kids := New(3).SplitN(8)
	if len(kids) != 8 {
		t.Fatalf("SplitN(8) returned %d children", len(kids))
	}
	seen := map[uint64]bool{}
	for _, k := range kids {
		v := k.Uint64()
		if seen[v] {
			t.Fatal("two children produced the same first output")
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	s := New(11)
	for n := 1; n <= 40; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolRate(t *testing.T) {
	s := New(19)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleSwapCount(t *testing.T) {
	xs := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), xs...)
	New(29).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	// Must still contain the same multiset.
	count := map[string]int{}
	for _, x := range xs {
		count[x]++
	}
	for _, x := range orig {
		count[x]--
	}
	for k, v := range count {
		if v != 0 {
			t.Fatalf("shuffle lost/gained element %q", k)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(31)
	const p = 0.25
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += s.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // = 3
	if math.Abs(mean-want) > 0.15 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(41)
	sum, sumSq := 0.0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %v", variance)
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(100, 1.0)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf probabilities sum to %v", sum)
	}
}

func TestZipfMonotone(t *testing.T) {
	z := NewZipf(50, 1.1)
	for i := 1; i < z.N(); i++ {
		if z.Prob(i) > z.Prob(i-1)+1e-12 {
			t.Fatalf("Zipf prob not monotone at rank %d", i)
		}
	}
}

func TestZipfSampleRange(t *testing.T) {
	z := NewZipf(10, 0.9)
	s := New(43)
	for i := 0; i < 10000; i++ {
		r := z.Sample(s)
		if r < 0 || r >= 10 {
			t.Fatalf("Zipf sample %d out of range", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.0)
	s := New(47)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(s)]++
	}
	if counts[0] <= counts[50] {
		t.Fatal("Zipf head rank not more popular than middle rank")
	}
	// Empirical frequency of rank 0 should be close to its mass.
	got := float64(counts[0]) / n
	want := z.Prob(0)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("rank 0 frequency %v, want ~%v", got, want)
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	z := NewZipf(4, 0)
	for i := 0; i < 4; i++ {
		if math.Abs(z.Prob(i)-0.25) > 1e-9 {
			t.Fatalf("exponent 0: Prob(%d) = %v, want 0.25", i, z.Prob(i))
		}
	}
}

func TestWeightedErrors(t *testing.T) {
	if _, err := NewWeighted(nil); err == nil {
		t.Fatal("NewWeighted(nil) succeeded")
	}
	if _, err := NewWeighted([]float64{0, 0}); err == nil {
		t.Fatal("NewWeighted(zeros) succeeded")
	}
	if _, err := NewWeighted([]float64{1, -2}); err == nil {
		t.Fatal("NewWeighted(negative) succeeded")
	}
	if _, err := NewWeighted([]float64{math.NaN()}); err == nil {
		t.Fatal("NewWeighted(NaN) succeeded")
	}
}

func TestWeightedProportions(t *testing.T) {
	w := MustWeighted([]float64{1, 2, 7})
	s := New(53)
	counts := make([]int, 3)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[w.Sample(s)]++
	}
	wants := []float64{0.1, 0.2, 0.7}
	for i, want := range wants {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("outcome %d: frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestWeightedSingleOutcome(t *testing.T) {
	w := MustWeighted([]float64{5})
	s := New(59)
	for i := 0; i < 100; i++ {
		if w.Sample(s) != 0 {
			t.Fatal("single-outcome sampler returned nonzero index")
		}
	}
}

func TestWeightedZeroWeightNeverSampled(t *testing.T) {
	w := MustWeighted([]float64{0, 1, 0, 1})
	s := New(61)
	for i := 0; i < 50000; i++ {
		v := w.Sample(s)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-weight outcome %d", v)
		}
	}
}

// Property: Intn(n) is always within range for arbitrary seeds and n.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed, same stream — regardless of seed value.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Weighted sampler never returns an out-of-range index.
func TestQuickWeightedInRange(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			weights[i] = float64(r)
			total += weights[i]
		}
		if total == 0 {
			return true
		}
		w, err := NewWeighted(weights)
		if err != nil {
			return false
		}
		s := New(seed)
		for i := 0; i < 30; i++ {
			v := w.Sample(s)
			if v < 0 || v >= len(weights) {
				return false
			}
			if weights[v] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(1000, 1.0)
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(s)
	}
}

func BenchmarkWeightedSample(b *testing.B) {
	weights := make([]float64, 1000)
	for i := range weights {
		weights[i] = float64(i%17 + 1)
	}
	w := MustWeighted(weights)
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Sample(s)
	}
}

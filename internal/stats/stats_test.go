package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

// TestRNGMatchesStdlib pins the draw-identity contract: an RNG is
// byte-identical to a bare rand.New(rand.NewSource(seed)) across every
// draw method, which is what keeps the trace goldens stable.
func TestRNGMatchesStdlib(t *testing.T) {
	g := NewRNG(42)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		switch i % 6 {
		case 0:
			if a, b := g.Float64(), r.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v != %v", i, a, b)
			}
		case 1:
			if a, b := g.Intn(97), r.Intn(97); a != b {
				t.Fatalf("draw %d: Intn %d != %d", i, a, b)
			}
		case 2:
			if a, b := g.Int63(), r.Int63(); a != b {
				t.Fatalf("draw %d: Int63 %d != %d", i, a, b)
			}
		case 3:
			if a, b := g.NormFloat64(), r.NormFloat64(); a != b {
				t.Fatalf("draw %d: NormFloat64 %v != %v", i, a, b)
			}
		case 4:
			if a, b := g.ExpFloat64(), r.ExpFloat64(); a != b {
				t.Fatalf("draw %d: ExpFloat64 %v != %v", i, a, b)
			}
		case 5:
			if a, b := g.Perm(7), r.Perm(7); !slices.Equal(a, b) {
				t.Fatalf("draw %d: Perm %v != %v", i, a, b)
			}
		}
	}
}

func TestRNGForkIndependentButReproducible(t *testing.T) {
	a1 := NewRNG(7).Fork("workload")
	a2 := NewRNG(7).Fork("workload")
	b := NewRNG(7).Fork("dns")
	same, diff := true, false
	for i := 0; i < 50; i++ {
		v1, v2, v3 := a1.Float64(), a2.Float64(), b.Float64()
		if v1 != v2 {
			same = false
		}
		if v1 != v3 {
			diff = true
		}
	}
	if !same {
		t.Error("Fork with same name must be reproducible")
	}
	if !diff {
		t.Error("Fork with different names must differ")
	}
}

// TestRNGForkOrderIndependent pins the contract the concurrent
// analysis runtime depends on: a fork's stream is a pure function of
// (parent seed, name), no matter how much the parent has drawn or how
// many siblings were forked first.
func TestRNGForkOrderIndependent(t *testing.T) {
	fresh := NewRNG(42).Fork("x")
	busy := NewRNG(42)
	for i := 0; i < 17; i++ {
		busy.Float64() // consume parent state
	}
	busy.Fork("sibling")
	late := busy.Fork("x")
	for i := 0; i < 50; i++ {
		if fresh.Float64() != late.Float64() {
			t.Fatal("fork stream depends on parent draw position or sibling order")
		}
	}
}

func TestForkSeedPure(t *testing.T) {
	if ForkSeed(1, "a") != ForkSeed(1, "a") {
		t.Error("ForkSeed not deterministic")
	}
	if ForkSeed(1, "a") == ForkSeed(1, "b") {
		t.Error("ForkSeed ignores name")
	}
	if ForkSeed(1, "a") == ForkSeed(2, "a") {
		t.Error("ForkSeed ignores seed")
	}
	if got := NewRNG(9).Fork("n").Seed(); got != ForkSeed(9, "n") {
		t.Errorf("Fork seed = %d, want ForkSeed = %d", got, ForkSeed(9, "n"))
	}
}

// TestRNGForkConcurrent forks from one parent in many goroutines;
// meaningful under -race.
func TestRNGForkConcurrent(t *testing.T) {
	parent := NewRNG(3)
	var wg sync.WaitGroup
	vals := make([]float64, 16)
	for k := range vals {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[k] = parent.Fork("worker").Float64()
		}()
	}
	wg.Wait()
	for k := range vals {
		if vals[k] != vals[0] {
			t.Fatal("same-name forks must agree regardless of goroutine schedule")
		}
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Uniform(5,10) = %v out of range", v)
		}
	}
}

func TestRNGPoissonMean(t *testing.T) {
	g := NewRNG(3)
	for _, mean := range []float64{0.5, 4, 40, 800} {
		n := 5000
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.1+0.2 {
			t.Errorf("Poisson(%g) sample mean = %g", mean, got)
		}
	}
}

func TestRNGPoissonEdge(t *testing.T) {
	g := NewRNG(4)
	if got := g.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := g.Poisson(-3); got != 0 {
		t.Errorf("Poisson(-3) = %d, want 0", got)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := g.LogNormal(1, 2); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	g := NewRNG(6)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %g", frac)
	}
}

func TestNewZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0, 1) must fail")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("NewZipf(10, -1) must fail")
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(1000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(8)
	counts := make([]int, 1000)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(g)]++
	}
	// Rank 0 should get about 1/H(1000) ~ 13.4% of draws.
	frac0 := float64(counts[0]) / float64(n)
	if frac0 < 0.10 || frac0 > 0.17 {
		t.Errorf("rank-0 fraction = %g, want ~0.134", frac0)
	}
	// Monotone non-increasing on average: first decile outweighs last.
	head, tail := 0, 0
	for i := 0; i < 100; i++ {
		head += counts[i]
		tail += counts[900+i]
	}
	if head <= tail*10 {
		t.Errorf("zipf not skewed: head=%d tail=%d", head, tail)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z, err := NewZipf(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		if math.Abs(z.ProbOfRank(r)-0.1) > 1e-9 {
			t.Errorf("ProbOfRank(%d) = %g, want 0.1", r, z.ProbOfRank(r))
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	f := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw)%100 + 1
		s := float64(sRaw) / 64.0
		z, err := NewZipf(n, s)
		if err != nil {
			return false
		}
		sum := 0.0
		for r := 0; r < n; r++ {
			sum += z.ProbOfRank(r)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfSampleInRange(t *testing.T) {
	z, _ := NewZipf(17, 0.9)
	g := NewRNG(9)
	for i := 0; i < 10000; i++ {
		r := z.Sample(g)
		if r < 0 || r >= 17 {
			t.Fatalf("Sample out of range: %d", r)
		}
	}
}

func TestZipfProbOfRankOutOfRange(t *testing.T) {
	z, _ := NewZipf(5, 1)
	if z.ProbOfRank(-1) != 0 || z.ProbOfRank(5) != 0 {
		t.Error("out-of-range ranks must have zero probability")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %g, want 0", got)
	}
	if got := c.At(1); got != 1.0/3 {
		t.Errorf("At(1) = %g, want 1/3", got)
	}
	if got := c.At(2.5); got != 2.0/3 {
		t.Errorf("At(2.5) = %g, want 2/3", got)
	}
	if got := c.At(99); got != 1 {
		t.Errorf("At(99) = %g, want 1", got)
	}
	if c.Min() != 1 || c.Max() != 3 {
		t.Errorf("Min/Max = %g/%g", c.Min(), c.Max())
	}
	if c.Median() != 2 {
		t.Errorf("Median = %g", c.Median())
	}
	if math.Abs(c.Mean()-2) > 1e-12 {
		t.Errorf("Mean = %g", c.Mean())
	}
}

func TestCDFAddAfterQuery(t *testing.T) {
	c := &CDF{}
	c.Add(5)
	if c.At(5) != 1 {
		t.Error("single sample CDF broken")
	}
	c.Add(1)
	if c.At(1) != 0.5 {
		t.Errorf("At(1) after Add = %g, want 0.5", c.At(1))
	}
}

func TestCDFQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile on empty CDF must panic")
		}
	}()
	(&CDF{}).Quantile(0.5)
}

func TestCDFQuantileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile(1.5) must panic")
		}
	}()
	NewCDF([]float64{1}).Quantile(1.5)
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		c := NewCDF(samples)
		xs := append([]float64(nil), samples...)
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			cur := c.At(x)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return c.At(xs[len(xs)-1]) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	// At(Quantile(q)) >= q for all q.
	c := NewCDF([]float64{5, 2, 9, 1, 7, 3, 8, 4, 6, 0})
	for q := 0.0; q <= 1.0; q += 0.05 {
		x := c.Quantile(q)
		if c.At(x) < q-1e-9 {
			t.Errorf("At(Quantile(%g)) = %g < %g", q, c.At(x), q)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{10, 20})
	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("Points len = %d", len(pts))
	}
	if pts[0].X != 10 || pts[0].F != 0.5 || pts[1].X != 20 || pts[1].F != 1 {
		t.Errorf("Points = %+v", pts)
	}
}

func TestCDFRenderASCII(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	s := c.RenderASCII("test", []float64{2})
	if s == "" {
		t.Error("RenderASCII returned empty string")
	}
}

func TestTimeBinsBasics(t *testing.T) {
	tb := NewTimeBins(3*time.Hour, time.Hour)
	if tb.N() != 3 {
		t.Fatalf("N = %d", tb.N())
	}
	tb.Incr(30 * time.Minute)
	tb.Incr(90 * time.Minute)
	tb.Add(150*time.Minute, 2)
	if tb.Bin(0) != 1 || tb.Bin(1) != 1 || tb.Bin(2) != 2 {
		t.Errorf("bins = %v", tb.Values())
	}
	if tb.Total() != 4 {
		t.Errorf("Total = %g", tb.Total())
	}
	idx, v := tb.MaxBin()
	if idx != 2 || v != 2 {
		t.Errorf("MaxBin = %d,%g", idx, v)
	}
}

func TestTimeBinsClamping(t *testing.T) {
	tb := NewTimeBins(2*time.Hour, time.Hour)
	tb.Incr(-5 * time.Minute)
	tb.Incr(100 * time.Hour)
	if tb.Bin(0) != 1 || tb.Bin(1) != 1 {
		t.Errorf("clamping failed: %v", tb.Values())
	}
}

func TestTimeBinsUnevenSpan(t *testing.T) {
	tb := NewTimeBins(90*time.Minute, time.Hour)
	if tb.N() != 2 {
		t.Errorf("N = %d, want 2 (rounded up)", tb.N())
	}
}

func TestTimeBinsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width must panic")
		}
	}()
	NewTimeBins(time.Hour, 0)
}

func TestRatio(t *testing.T) {
	num := NewTimeBins(3*time.Hour, time.Hour)
	den := NewTimeBins(3*time.Hour, time.Hour)
	num.Add(0, 1)
	den.Add(0, 4)
	den.Add(time.Hour, 2)
	vals, ok := Ratio(num, den)
	if vals[0] != 0.25 || !ok[0] {
		t.Errorf("bin 0: %g %v", vals[0], ok[0])
	}
	if vals[1] != 0 || !ok[1] {
		t.Errorf("bin 1: %g %v", vals[1], ok[1])
	}
	if vals[2] != 0 || ok[2] {
		t.Errorf("bin 2 must be masked: %g %v", vals[2], ok[2])
	}
}

func TestRatioGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched geometry must panic")
		}
	}()
	Ratio(NewTimeBins(2*time.Hour, time.Hour), NewTimeBins(3*time.Hour, time.Hour))
}

func TestTimeBinsString(t *testing.T) {
	tb := NewTimeBins(time.Hour, time.Hour)
	if tb.String() == "" {
		t.Error("String empty")
	}
}

// TestForkIndexed pins the bucketed fork: children depend only on
// (parent seed, name, index) — not on sibling count, fork order or the
// parent's draw position — and distinct indices give distinct streams.
func TestForkIndexed(t *testing.T) {
	parent := NewRNG(99)
	a := parent.ForkIndexed("subnet", 3)
	parent.Float64() // advance the parent; must not matter
	b := NewRNG(99).ForkIndexed("subnet", 3)
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("ForkIndexed depends on parent draw position or fork order")
		}
	}
	if NewRNG(99).ForkIndexed("subnet", 3).Seed() == NewRNG(99).ForkIndexed("subnet", 4).Seed() {
		t.Error("distinct indices must give distinct streams")
	}
	if NewRNG(99).ForkIndexed("subnet", 3).Seed() != NewRNG(99).Fork("subnet/3").Seed() {
		t.Error("ForkIndexed must be the documented name/index fork")
	}
}

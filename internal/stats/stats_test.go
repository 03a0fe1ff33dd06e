package stats

import (
	"math"
	"testing"
	"testing/quick"

	"navaug/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	s := NewSummary([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary %+v", s)
	}
	if !almostEqual(s.Variance, 2.5, 1e-12) {
		t.Fatalf("variance %v", s.Variance)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std %v", s.Std)
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	if s := NewSummary(nil); s.Count != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should be zero")
	}
	s := NewSummary([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.CI95() != 0 {
		t.Fatalf("single-element summary %+v", s)
	}
}

func TestSummaryCIShrinksWithSampleSize(t *testing.T) {
	rng := xrand.New(1)
	small := make([]float64, 100)
	large := make([]float64, 10000)
	for i := range small {
		small[i] = normFloat64(rng)
	}
	for i := range large {
		large[i] = normFloat64(rng)
	}
	if NewSummary(large).CI95() >= NewSummary(small).CI95() {
		t.Fatal("CI should shrink with more samples")
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Fatalf("fit %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 %v", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := Linear([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x accepted")
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := xrand.New(2)
	var x, y []float64
	for i := 0; i < 500; i++ {
		xv := float64(i)
		x = append(x, xv)
		y = append(y, 4+0.5*xv+normFloat64(rng))
	}
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 0.5, 0.01) {
		t.Fatalf("slope %v", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 %v too low", fit.R2)
	}
}

func TestPowerLawRecoverExponent(t *testing.T) {
	// y = 3 * x^0.5
	var x, y []float64
	for _, n := range []float64{100, 200, 400, 800, 1600, 3200} {
		x = append(x, n)
		y = append(y, 3*math.Sqrt(n))
	}
	fit, err := PowerLaw(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Exponent, 0.5, 1e-9) {
		t.Fatalf("exponent %v", fit.Exponent)
	}
	if !almostEqual(fit.Constant, 3, 1e-6) {
		t.Fatalf("constant %v", fit.Constant)
	}
}

func TestPowerLawSkipsNonPositive(t *testing.T) {
	x := []float64{0, -1, 10, 100, 1000}
	y := []float64{5, 5, 1, 10, 100}
	fit, err := PowerLaw(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.N != 3 {
		t.Fatalf("used %d points, want 3", fit.N)
	}
	if !almostEqual(fit.Exponent, 1, 1e-9) {
		t.Fatalf("exponent %v", fit.Exponent)
	}
}

func TestPowerLawErrors(t *testing.T) {
	if _, err := PowerLaw([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := PowerLaw([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("all non-positive accepted")
	}
}

// Property: the summary mean always lies between min and max.
func TestSummaryMeanWithinRange(t *testing.T) {
	rng := xrand.New(3)
	check := func(raw uint8) bool {
		n := 1 + int(raw%60)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = normFloat64(rng) * 10
		}
		s := NewSummary(vals)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// normFloat64 returns a standard normal variate (Box–Muller, polar form),
// the noise the fitting tests add to their data.
func normFloat64(r *xrand.RNG) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

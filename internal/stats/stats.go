// Package stats provides the small statistical toolkit the experiments
// need: summary statistics with confidence intervals and least-squares
// fits (including log-log exponent fits used to verify the paper's √n and
// n^(1/3) scaling claims).
package stats

import (
	"fmt"
	"math"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	Count    int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance
	Std      float64
	Min      float64
	Max      float64
}

// NewSummary computes summary statistics; an empty sample yields a zero
// Summary with Count == 0.
func NewSummary(values []float64) Summary {
	s := Summary{Count: len(values)}
	if s.Count == 0 {
		return s
	}
	s.Min = values[0]
	s.Max = values[0]
	sum := 0.0
	for _, v := range values {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.Count)
	if s.Count > 1 {
		ss := 0.0
		for _, v := range values {
			d := v - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.Count-1)
		s.Std = math.Sqrt(s.Variance)
	}
	return s
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval for the mean.
func (s Summary) CI95() float64 {
	if s.Count < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.Count))
}

// LinearFit is the result of an ordinary least squares fit y = a + b·x.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
	N         int
}

// Linear fits y = a + b·x by least squares.  It returns an error when fewer
// than two points are given or the x values are all identical.
func Linear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, fmt.Errorf("stats: need at least 2 points, got %d", n)
	}
	var sumX, sumY float64
	for i := range x {
		sumX += x[i]
		sumY += y[i]
	}
	meanX := sumX / float64(n)
	meanY := sumY / float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx := x[i] - meanX
		dy := y[i] - meanY
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: degenerate fit, all x values identical")
	}
	slope := sxy / sxx
	intercept := meanY - slope*meanX
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := range x {
			pred := intercept + slope*x[i]
			ssRes += (y[i] - pred) * (y[i] - pred)
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Intercept: intercept, Slope: slope, R2: r2, N: n}, nil
}

// PowerFit is the result of fitting y = C · x^Exponent in log-log space.
type PowerFit struct {
	Exponent float64
	Constant float64
	R2       float64
	N        int
}

// PowerLaw fits y ≈ C·x^e by least squares on (log x, log y).  Points with
// non-positive coordinates are skipped; it returns an error if fewer than
// two usable points remain.  This is the fit the experiments use to recover
// the 0.5 and 1/3 exponents of Theorems 1 and 4.
func PowerLaw(x, y []float64) (PowerFit, error) {
	if len(x) != len(y) {
		return PowerFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(x), len(y))
	}
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	fit, err := Linear(lx, ly)
	if err != nil {
		return PowerFit{}, err
	}
	return PowerFit{
		Exponent: fit.Slope,
		Constant: math.Exp(fit.Intercept),
		R2:       fit.R2,
		N:        fit.N,
	}, nil
}

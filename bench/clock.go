package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The cores of a shared virtual machine do not run at one speed: how fast
// they run the same code drifts over seconds and minutes with what the
// neighbouring machines do.  On the 2-vCPU host this benchmark was sized
// on, 7.5 s medians of in-process routing throughput spread by 0.134
// (interquartile range over median) over ten minutes.
//
// So every measured stretch of work is timed between two readings of the
// core speed, and its time is reported at a fixed reference speed:
//
//	reference time = wall time × (mean of the two readings) / refSpeed
//
// A stretch that ran while the cores were slow is scaled down, one that ran
// while they were fast is scaled up.  The program under test cannot change
// the kernels that read the speed, so a slower program still reads slower.
// The result document keeps the wall-clock value of every scaled metric
// next to it, under the same name with a "_wall" suffix.
//
// A reading combines two kernels that stand for most code: independent
// multiply-adds, which compete for the execution units a busy sibling
// hyperthread also uses, and independent loads from an L2-sized table.
// Scaled by their geometric mean, the routing medians above spread by
// 0.056; scaled by a chain of dependent multiply-adds, which a sibling
// barely slows, by 0.098.

// refSpeed is the reference core speed: the geometric mean of multiply-adds
// and table loads per nanosecond, about the usual reading under load on the
// host the benchmark was sized on, so that a time at reference speed reads
// close to its wall time there.
const refSpeed = 1.4

// The kernels' lengths: about 55 µs and 65 µs per sample on that host.
const (
	mulSteps  = 1 << 14 // iterations of eight multiply-adds
	loadSteps = 1 << 15
)

// speedSamples is how many samples of each kernel each core takes per
// reading; the median drops a sample that the scheduler interrupted.
const speedSamples = 5

// table is what the load kernel reads: 1 MB, which fits a core's L2.
var table = func() []uint32 {
	t := make([]uint32, 1<<18)
	for i := range t {
		t[i] = uint32(i) * 2654435761
	}
	return t
}()

// mulAdds runs n iterations of eight independent multiply-add chains.
//
//go:noinline
func mulAdds(n int, s uint64) uint64 {
	a, b, c, d, e, f, g, h := s, s+1, s+2, s+3, s+4, s+5, s+6, s+7
	for range n {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1442695040888963407
		c = c*6364136223846793005 + 1442695040888963407
		d = d*6364136223846793005 + 1442695040888963407
		e = e*6364136223846793005 + 1442695040888963407
		f = f*6364136223846793005 + 1442695040888963407
		g = g*6364136223846793005 + 1442695040888963407
		h = h*6364136223846793005 + 1442695040888963407
	}
	return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

// loads sums n table entries at scattered indices that do not depend on
// one another, so that several loads are in flight at once.
//
//go:noinline
func loads(n int, s uint32) uint32 {
	mask := uint32(len(table) - 1)
	var x uint32
	for i := range n {
		x += table[(s+uint32(i)*2654435761)&mask]
	}
	return x
}

// coreSpeed reads the current speed of the cores: every core runs each
// kernel speedSamples times at once, and the result is the mean over the
// cores of the geometric mean of each core's median rates.
func coreSpeed() float64 {
	procs := runtime.GOMAXPROCS(0)
	speeds := make([]float64, procs)
	var ready, wg sync.WaitGroup
	ready.Add(procs)
	start := make(chan struct{})
	for p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			<-start
			var s uint64
			var x uint32
			muls, lds := make([]float64, speedSamples), make([]float64, speedSamples)
			for i := range speedSamples {
				t := time.Now()
				s = mulAdds(mulSteps, s)
				muls[i] = 8 * mulSteps / float64(time.Since(t).Nanoseconds())
				t = time.Now()
				x += loads(loadSteps, uint32(s))
				lds[i] = loadSteps / float64(time.Since(t).Nanoseconds())
			}
			sink.Add(int64(s&1) + int64(x&1))
			sort.Float64s(muls)
			sort.Float64s(lds)
			speeds[p] = math.Sqrt(muls[speedSamples/2] * lds[speedSamples/2])
		}()
	}
	ready.Wait()
	close(start)
	wg.Wait()
	var sum float64
	for _, v := range speeds {
		sum += v
	}
	return sum / float64(procs)
}

// gauge converts wall times to reference time.  read takes a reading; lap
// takes another and returns the factor that converts a time measured
// between the two to reference time.
type gauge struct{ at float64 }

func newGauge() *gauge { return &gauge{at: coreSpeed()} }

func (g *gauge) read() { g.at = coreSpeed() }

func (g *gauge) lap() float64 {
	prev := g.at
	g.read()
	return (prev + g.at) / 2 / refSpeed
}

// scaled pairs a wall time with its factor to reference time.
type scaled struct {
	wall   time.Duration
	factor float64
}

func (s scaled) ref() float64 { return s.wall.Seconds() * s.factor }

// refSecs and wallSecs list the reference and wall times of ss in seconds.
func refSecs(ss []scaled) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ref()
	}
	return out
}

func wallSecs(ss []scaled) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

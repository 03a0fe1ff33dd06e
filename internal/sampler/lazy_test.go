package sampler

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"navaug/internal/xrand"
)

// tableFiller fills every row with the same class codes and table.  With
// inBuf set it returns the table in the buf it is handed and keeps that
// buf, so a test can scribble over it after the build.
type tableFiller struct {
	cls   []int32
	vals  []float64
	inBuf bool
	buf   []float64
}

func (f *tableFiller) FillRow(_ int32, cls, _ []int32, buf []float64) []float64 {
	copy(cls, f.cls)
	if !f.inBuf {
		return f.vals
	}
	f.buf = buf
	return append(buf[:0], f.vals...)
}

// sameAsBuildInto fails unless every column of the built row r has the
// prob bits and alias BuildInto gives the weights vals[cls[i]], or the
// one-hot weights at row when those are all zero.
func sameAsBuildInto(t *testing.T, r *codedRow, row int32, cls []int32, vals []float64) {
	t.Helper()
	k := len(cls)
	weights := make([]float64, k)
	total := 0.0
	for i, c := range cls {
		weights[i] = vals[c]
		total += weights[i]
	}
	if total == 0 {
		weights[row] = 1
	}
	prob, alias := make([]float64, k), make([]int32, k)
	if err := BuildInto(prob, alias, weights, make([]int32, k)); err != nil {
		t.Fatal(err)
	}
	for i := range prob {
		if p, a := r.column(int32(i)); math.Float64bits(p) != math.Float64bits(prob[i]) || a != alias[i] {
			t.Fatalf("column %d (code %d): (prob %v, alias %d), BuildInto gives (%v, %d)", i, r.code[i], p, a, prob[i], alias[i])
		}
	}
}

// buildRow builds the given row of l and returns it.
func buildRow(l *LazyRows, row int32) *codedRow {
	l.Draw(row, xrand.New(1))
	return l.rows[row].Load()
}

// TestCodedRowPaths builds rows that take each path of the class-coded
// layout and checks every column against BuildInto, bit for bit.
func TestCodedRowPaths(t *testing.T) {
	many := make([]float64, 300)
	for c := 1; c < len(many); c++ {
		many[c] = 1 / float64(c)
	}
	manyCls := make([]int32, 900)
	for i := range manyCls {
		manyCls[i] = int32(i * 7 % len(many))
	}
	ballLike := make([]float64, 34)
	for c := 2; c < len(ballLike); c++ {
		ballLike[c] = 0.37 / float64(c*c)
	}
	ballCls := make([]int32, 50)
	for i := range ballCls {
		ballCls[i] = int32(2 + i%32)
	}
	codes := func(r *codedRow, want uint16) (n int) {
		for _, c := range r.code {
			if c == want {
				n++
			}
		}
		return n
	}

	cases := []struct {
		name  string
		cls   []int32
		vals  []float64
		inBuf bool
		row   int32
		check func(t *testing.T, f *tableFiller, r *codedRow)
	}{
		{
			name: "one class: every column accepts always",
			cls:  []int32{1, 1, 1, 1, 1, 1, 1}, vals: []float64{0, 0.1}, inBuf: true,
			check: func(t *testing.T, _ *tableFiller, r *codedRow) {
				if n := codes(r, codeAccept); n != len(r.code) || len(r.sideProb) != 0 {
					t.Fatalf("%d of %d columns accept always, %d on the side", n, len(r.code), len(r.sideProb))
				}
			},
		},
		{
			// The total overflows to +Inf, so the scale is 0: every column
			// is a leftover, and the weight-0 ones alias the heaviest.
			name: "zero-weight leftovers alias the heaviest",
			cls:  []int32{2, 1, 0, 1, 2}, vals: []float64{0, math.MaxFloat64, 0}, inBuf: true,
			check: func(t *testing.T, _ *tableFiller, r *codedRow) {
				for _, i := range []int{0, 2, 4} {
					if r.code[i] >= MaxClasses || r.alias[i] != 1 {
						t.Fatalf("weight-0 column %d: code %d, alias %d, want its class and the heaviest, 1", i, r.code[i], r.alias[i])
					}
				}
			},
		},
		{
			// k/total overflows to +Inf, so weight-0 columns scale to NaN,
			// start as receivers and are finalised on the side.
			name: "zero-weight receivers go to the side",
			cls:  []int32{1, 0, 0, 1, 0}, vals: []float64{0, 5e-324}, inBuf: true,
			check: func(t *testing.T, _ *tableFiller, r *codedRow) {
				if n := codes(r, codeSide); n != 3 {
					t.Fatalf("%d side columns, want the 3 of weight 0", n)
				}
			},
		},
		{
			name: "all-zero row parks its mass on the row",
			cls:  []int32{0, 1, 2, 1, 0}, vals: []float64{0, 0, 0}, inBuf: true, row: 1,
			check: func(t *testing.T, _ *tableFiller, r *codedRow) {
				if r.code[1] != codeAccept {
					t.Fatalf("row column has code %d, want accept-always", r.code[1])
				}
			},
		},
		{
			name: "300 classes in a shared table",
			cls:  manyCls, vals: many,
			check: func(t *testing.T, f *tableFiller, r *codedRow) {
				if &r.vals[0] != &f.vals[0] {
					t.Fatal("a class table outside buf was copied")
				}
				if codes(r, 299) == 0 {
					t.Fatal("no column has a code past one byte")
				}
			},
		},
		{
			name: "table in buf survives the next build",
			cls:  ballCls, vals: ballLike, inBuf: true,
			check: func(t *testing.T, f *tableFiller, r *codedRow) {
				if len(r.sideProb) == 0 || codes(r, codeAccept) == len(r.code) {
					t.Fatal("row has no side columns or only accept-always ones")
				}
				for i := range f.buf {
					f.buf[i] = math.NaN()
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &tableFiller{cls: tc.cls, vals: tc.vals, inBuf: tc.inBuf}
			l := NewLazyRows(len(tc.cls), len(tc.cls), f)
			r := buildRow(l, tc.row)
			tc.check(t, f, r)
			sameAsBuildInto(t, r, tc.row, tc.cls, tc.vals)
		})
	}

	t.Run("table longer than the code space panics", func(t *testing.T) {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "class table") {
				t.Fatalf("recovered %q, want a panic naming the class table", msg)
			}
		}()
		f := &tableFiller{cls: []int32{1, 1, 1}, vals: make([]float64, MaxClasses+1)}
		f.vals[1] = 1
		buildRow(NewLazyRows(3, 3, f), 0)
	})
}

// FuzzLazyRows builds one row from fuzzed class codes and class values and
// checks it against BuildInto bit for bit.  Each 8 bytes of vals is one
// class value: the absolute value of those float bits, or their low 16 bits
// as an integer when that is not finite.  The absolute value keeps the sign
// bit clear: a weight of -0 draws like 0, but BuildInto finalises it to +0.
// Tables up to RowClasses long come back in the filler's buf.
func FuzzLazyRows(f *testing.F) {
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add([]byte{1, 2, 0, 1, 3, 3, 2}, floats(1, 2.5, 0.125), uint16(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1}, floats(0.1), uint16(3))
	f.Add([]byte{0, 0, 0, 0}, floats(0), uint16(2))
	f.Add([]byte{1, 0, 1, 0, 2}, floats(math.MaxFloat64, 1), uint16(1))
	f.Add([]byte{1, 0, 0, 1, 0}, floats(5e-324), uint16(4))
	f.Add([]byte{5, 4, 3, 2, 1, 1, 2, 3, 4, 5, 0, 9}, floats(1e300, 1e-300, 3, 1, 1e-10, 7, 7, 7, 1e10), uint16(11))
	f.Fuzz(func(t *testing.T, codes, valBytes []byte, row uint16) {
		if len(codes) == 0 {
			return
		}
		vals := []float64{0}
		for ; len(valBytes) >= 8; valBytes = valBytes[8:] {
			bits := binary.LittleEndian.Uint64(valBytes)
			v := math.Abs(math.Float64frombits(bits))
			if !(v <= math.MaxFloat64) {
				v = float64(bits & 0xffff)
			}
			vals = append(vals, v)
		}
		cls := make([]int32, len(codes))
		for i, c := range codes {
			cls[i] = int32(int(c) % len(vals))
		}
		k := len(cls)
		r := int32(int(row) % k)
		l := NewLazyRows(k, k, &tableFiller{cls: cls, vals: vals, inBuf: len(vals) <= RowClasses})
		sameAsBuildInto(t, buildRow(l, r), r, cls, vals)
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// distBodySeeds are the fuzz seeds, each with whether the fast parser
// takes it: canonical and whitespace-padded bodies it must take, and the
// shapes it must leave to encoding/json.
var distBodySeeds = []struct {
	body string
	fast bool
}{
	{`{"pairs":[[0,1],[2,3]]}`, true},
	{" \t\r\n{ \"pairs\" :\n[ [ 0 , 1 ] ,\t[2,3]\r] }\n ", true},
	{`{"pairs":[]}`, true},
	{`{"pairs":[[-1,-0]]}`, true},
	{`{"pairs":[[2147483647,-2147483648]]}`, true},
	{`{"pairs":[[2147483648,0]]}`, false},
	{`{"pairs":[[-2147483649,0]]}`, false},
	{`{"pairs":[[01,2]]}`, false},
	{`{"pairs":[[1e2,2]]}`, false},
	{`{"pairs":[[1.0,2]]}`, false},
	{`{"Pairs":[[1,2]]}`, false},
	{`{"pairs":[[1,2]],"pairs":[[3,4]]}`, false},
	{`{"pairs":[[1,2,3]]}`, false},
	{`{"pairs":[[1]]}`, false},
	{`{"pairs":[[1,2]]} {}`, false},
	{`{"pairs":[[1,2]]}x`, false},
	{`{"pairs":null}`, false},
	{`{}`, false},
	{`[]`, false},
	{``, false},
	{`{"pairs":[[1,2],]}`, false},
	{`{"pairs":[[1,2]]`, false},
	{`{"pairs":[["1",2]]}`, false},
	{`{"pa\u0069rs":[[1,2]]}`, false},
	{"\ufeff{\"pairs\":[[1,2]]}", false},
}

// decodeDistBatchStd is the reference: the encoding/json decode the
// handler falls back to.
func decodeDistBatchStd(body []byte) ([][2]int32, error) {
	var req distBatchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Pairs, err
}

// FuzzDistBatchBody checks the fast batch parser against encoding/json:
// for any bytes it either declines or returns exactly the pairs the
// decoder returns.
func FuzzDistBatchBody(f *testing.F) {
	for _, seed := range distBodySeeds {
		if _, fast := parseDistPairs([]byte(seed.body), nil); fast != seed.fast {
			f.Errorf("parseDistPairs(%q) took the fast path: %v, want %v", seed.body, fast, seed.fast)
		}
		f.Add([]byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := parseDistPairs(body, nil)
		if !ok {
			return
		}
		want, err := decodeDistBatchStd(body)
		if err != nil {
			t.Fatalf("parseDistPairs(%q) = %v, but encoding/json fails: %v", body, got, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parseDistPairs(%q) = %v, encoding/json = %v", body, got, want)
		}
	})
}

// TestDistAnswerBytes pins the appenders against json.NewEncoder output
// of the response values they replace, at the int32 extremes.
func TestDistAnswerBytes(t *testing.T) {
	type batch struct {
		Dists  []int32 `json:"dists"`
		Approx bool    `json:"approx,omitempty"`
	}
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, dists := range [][]int32{{0}, {-1, 7, 2147483647, -2147483648}} {
		for _, approx := range []bool{false, true} {
			if got, want := string(appendDistBatch(nil, dists, approx)), encode(batch{dists, approx}); got != want {
				t.Errorf("batch answer %q, encoding/json %q", got, want)
			}
			one := map[string]any{"u": int32(2147483647), "v": int32(0), "dist": dists[len(dists)-1]}
			if approx {
				one["approx"] = true
			}
			if got, want := string(appendDistOne(nil, 2147483647, 0, dists[len(dists)-1], approx)), encode(one); got != want {
				t.Errorf("single answer %q, encoding/json %q", got, want)
			}
		}
	}
}

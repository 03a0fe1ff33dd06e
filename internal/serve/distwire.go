package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"

	"navaug/internal/graph"
)

// The wire format of /v1/dist, kept in one place.  A batch body of the
// canonical shape {"pairs":[[u,v],...]} — JSON whitespace anywhere, the
// exact key "pairs", integers in int32 range with no fraction, exponent or
// leading zero, nothing but whitespace after the closing brace — is
// decoded by a byte loop; any other body goes to encoding/json, so it gets
// exactly the pairs, or the 400 and its text, that encoding/json gives it.
// Answers are appended with strconv, byte for byte what json.NewEncoder
// writes for the same values, trailing newline included.

// batchBodyLimit bounds a POST body for a maxBatch-pair batch: 64 bytes a
// pair covers a json.MarshalIndent'ed pair at the int32 extremes (~50
// bytes), and 4 KiB the envelope and the route batch's other fields.
func batchBodyLimit(maxBatch int) int64 { return 64*int64(maxBatch) + 4096 }

// distBuf is the pooled per-request state of a dist batch: the body, then
// the answer appended over it, and the decoded pairs and their distances.
type distBuf struct {
	b     []byte
	pairs [][2]int32
	dists []int32
}

var distBufs = sync.Pool{New: func() any { return new(distBuf) }}

// badBody answers a batch body that could not be read or decoded: 413 past
// the size limit, the counted 503 when the body stalled past the server's
// read timeout, else 400 with the reader's or the decoder's message.
func (s *Server) badBody(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	var netErr net.Error
	switch {
	case errors.As(err, &tooBig):
		s.httpError(w, http.StatusRequestEntityTooLarge, "batch body over %d bytes", tooBig.Limit)
	case errors.As(err, &netErr) && netErr.Timeout():
		s.timedOut(w)
	default:
		s.httpError(w, http.StatusBadRequest, "bad batch body: %v", err)
	}
}

type distBatchRequest struct {
	Pairs [][2]int32 `json:"pairs"`
}

// readDistBatch reads a dist batch body into buf and decodes its pairs:
// a canonical body with parseDistPairs, any other with encoding/json.
// When the body is too long or does not decode it answers 413 or 400
// itself and reports false.
func (s *Server) readDistBatch(w http.ResponseWriter, r *http.Request, buf *distBuf) ([][2]int32, bool) {
	limit := batchBodyLimit(s.opts.MaxBatch)
	read := bytes.NewBuffer(buf.b[:0])
	if r.ContentLength > 0 {
		// Room for the announced body plus the read that sees EOF.
		read.Grow(int(min(r.ContentLength, limit)) + bytes.MinRead)
	}
	_, err := read.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	body := read.Bytes()
	buf.b = body
	if err != nil {
		s.badBody(w, err)
		return nil, false
	}
	if pairs, ok := parseDistPairs(body, buf.pairs[:0]); ok {
		buf.pairs = pairs
		return pairs, true
	}
	var req distBatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		s.badBody(w, err)
		return nil, false
	}
	return req.Pairs, true
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// expect skips whitespace from i and consumes c, reporting whether it was
// there.
func expect(b []byte, i int, c byte) (int, bool) {
	i = skipSpace(b, i)
	if i < len(b) && b[i] == c {
		return i + 1, true
	}
	return i, false
}

// parseInt32 skips whitespace from i and reads a JSON integer in int32
// range.  A fraction or exponent is left unread, so the caller's next
// expect fails on it.
func parseInt32(b []byte, i int) (int32, int, bool) {
	i = skipSpace(b, i)
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		if v = v*10 + int64(b[i]-'0'); v > 1<<31 {
			return 0, i, false
		}
	}
	if i == start || (b[start] == '0' && i > start+1) {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	if v > math.MaxInt32 {
		return 0, i, false
	}
	return int32(v), i, true
}

// parseDistPairs appends the pairs of a canonical batch body to pairs.
// ok is false for any other body; the caller then decodes it with
// encoding/json.
func parseDistPairs(b []byte, pairs [][2]int32) (_ [][2]int32, ok bool) {
	i, ok := expect(b, 0, '{')
	if !ok {
		return pairs, false
	}
	const key = `"pairs"`
	i = skipSpace(b, i)
	if len(b)-i < len(key) || string(b[i:i+len(key)]) != key {
		return pairs, false
	}
	if i, ok = expect(b, i+len(key), ':'); !ok {
		return pairs, false
	}
	if i, ok = expect(b, i, '['); !ok {
		return pairs, false
	}
	if j, empty := expect(b, i, ']'); empty {
		i = j
	} else {
		for more := true; more; i, more = expect(b, i, ',') {
			var p [2]int32
			if i, ok = expect(b, i, '['); !ok {
				return pairs, false
			}
			if p[0], i, ok = parseInt32(b, i); !ok {
				return pairs, false
			}
			if i, ok = expect(b, i, ','); !ok {
				return pairs, false
			}
			if p[1], i, ok = parseInt32(b, i); !ok {
				return pairs, false
			}
			if i, ok = expect(b, i, ']'); !ok {
				return pairs, false
			}
			pairs = append(pairs, p)
		}
		if i, ok = expect(b, i, ']'); !ok {
			return pairs, false
		}
	}
	if i, ok = expect(b, i, '}'); !ok {
		return pairs, false
	}
	return pairs, skipSpace(b, i) == len(b)
}

// appendDistBatch appends a batch answer: json.NewEncoder's output for
// struct{Dists []int32 `json:"dists"`; Approx bool `json:"approx,omitempty"`}.
func appendDistBatch(b []byte, dists []int32, approx bool) []byte {
	b = append(b, `{"dists":[`...)
	for i, d := range dists {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	b = append(b, ']')
	if approx {
		b = append(b, `,"approx":true`...)
	}
	return append(b, "}\n"...)
}

// appendDistOne appends a single answer: json.NewEncoder's output for the
// map {"u", "v", "dist"} plus "approx": true when set, keys sorted.
func appendDistOne(b []byte, u, v graph.NodeID, d int32, approx bool) []byte {
	b = append(b, '{')
	if approx {
		b = append(b, `"approx":true,`...)
	}
	b = append(b, `"dist":`...)
	b = strconv.AppendInt(b, int64(d), 10)
	b = append(b, `,"u":`...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, "}\n"...)
}

// writeAnswer writes an appended JSON answer.
func writeAnswer(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

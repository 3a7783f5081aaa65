package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// The request and response codec. The wire format stays encoding/json's:
// decodeCanonical reads a strict subset of what json.Unmarshal accepts and
// DecodeRequest hands every other body to json.Unmarshal, and encodeMatch
// writes exactly the bytes json.NewEncoder writes. Only the mate arrays,
// which are nearly all of a large body, move without reflection.

// decodeCanonical decodes a canonical request body in one pass. A canonical
// body is one JSON object whose keys are Request's JSON names but b, in exact
// case, whose strings are printable ASCII without escapes, whose numbers are
// integers that fit their field (threads at the platform int size), and
// whose mate_x and mate_y hold at most maxVector entries each. ok is false
// for any other body, which json.Unmarshal then decodes (or rejects) as
// before: null, fractions, exponents, escapes, b, unknown keys and trailing
// bytes all take that path. On ok the result equals json.Unmarshal's.
func decodeCanonical(body []byte, maxVector int) (req Request, ok bool) {
	s := scanner{b: body}
	if !s.eat('{') {
		return req, false
	}
	if !s.eat('}') {
		for {
			key, isStr := s.str()
			if !isStr || !s.eat(':') || !s.field(&req, key, maxVector) {
				return req, false
			}
			if s.eat(',') {
				continue
			}
			if !s.eat('}') {
				return req, false
			}
			break
		}
	}
	s.ws()
	return req, s.i == len(body)
}

// scanner is decodeCanonical's cursor over the body. Each read skips the
// whitespace before its token and reports false, leaving the cursor
// anywhere, when the token is not canonical.
type scanner struct {
	b []byte
	i int
}

// field reads the value of key into req. A key seen twice keeps its last
// value, as with json.Unmarshal.
func (s *scanner) field(req *Request, key []byte, maxVector int) bool {
	var ok bool
	switch string(key) {
	case "instance":
		req.Instance, ok = s.text()
	case "algorithm":
		req.Algorithm, ok = s.text()
	case "initializer":
		req.Initializer, ok = s.text()
	case "class":
		req.Class, ok = s.text()
	case "threads":
		var n int64
		n, ok = s.int(strconv.IntSize)
		req.Threads = int(n)
	case "seed":
		req.Seed, ok = s.int(64)
	case "deadline_ms":
		req.DeadlineMS, ok = s.int(64)
	case "mates":
		req.Mates, ok = s.bool()
	case "no_cache":
		req.NoCache, ok = s.bool()
	case "mate_x":
		req.MateX, ok = s.int32s(maxVector)
	case "mate_y":
		req.MateY, ok = s.int32s(maxVector)
	}
	return ok
}

func (s *scanner) ws() { s.i = skipWS(s.b, s.i) }

// skipWS returns the index of the first byte at or after i that is not JSON
// whitespace.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// eat consumes c.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII without escapes and returns its
// bytes, a view into the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text is str copied out of the body.
func (s *scanner) text() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

func (s *scanner) bool() (v, ok bool) {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false, true
	}
	return false, false
}

// int reads a JSON integer that fits in a signed integer of the given bits.
func (s *scanner) int(bits int) (int64, bool) {
	v, i, ok := parseInt(s.b, skipWS(s.b, s.i), bits)
	s.i = i
	return v, ok
}

// parseInt parses the JSON integer at b[i:] that fits in a signed integer of
// the given bits (at most 64) and returns it with the index past its digits.
// A leading zero is not canonical. A fraction or an exponent ends the digits
// where every caller requires a delimiter, so the caller rejects it.
func parseInt(b []byte, i, bits int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	// u is exact up to 19 digits; 20 overflow an int64 anyway.
	if n := i - start; n == 0 || n > 19 || n > 1 && b[start] == '0' {
		return 0, i, false
	}
	limit := uint64(1) << (bits - 1)
	if neg && u > limit || !neg && u >= limit {
		return 0, i, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// int32s reads an array of integers that fit in an int32. The slice is
// allocated once, at the length the commas before the first ']' give, and
// an empty array yields an empty, non-nil slice, as json.Unmarshal's does.
func (s *scanner) int32s(maxVector int) ([]int32, bool) {
	if !s.eat('[') {
		return nil, false
	}
	if s.eat(']') {
		return []int32{}, true
	}
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	n := bytes.Count(s.b[s.i:s.i+end], []byte{','}) + 1
	if n > maxVector {
		return nil, false
	}
	v := make([]int32, n)
	b, i := s.b, s.i
	for k := range v {
		sep := byte(',')
		if k == n-1 {
			sep = ']'
		}
		x, j, ok := arrayInt32(b, i)
		if !ok || j == len(b) || b[j] != sep {
			return nil, false
		}
		v[k] = x
		i = j + 1
	}
	s.i = i
	return v, true
}

// arrayInt32 reads an array entry at b[i:], an integer that fits in an int32
// by parseInt's rules with JSON whitespace either side, and returns it with
// the index past the whitespace after it. It is parseInt with its own digit
// loop, and it skips whitespace only where the next byte can be some.
func arrayInt32(b []byte, i int) (int32, int, bool) {
	if i < len(b) && b[i] <= ' ' {
		i = skipWS(b, i)
	}
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	// u is exact up to ten digits, and eleven overflow an int32 anyway.
	if n := i - start; n == 0 || n > 10 || n > 1 && b[start] == '0' || u > 1<<31 || !neg && u == 1<<31 {
		return 0, i, false
	}
	if i < len(b) && b[i] <= ' ' {
		i = skipWS(b, i)
	}
	if neg {
		return int32(-int64(u)), i, true
	}
	return int32(u), i, true
}

// encodeMatch appends resp to buf byte for byte as json.NewEncoder encodes
// it, newline included: encoding/json writes every field but the mate
// arrays, and the arrays, its last two fields, follow as appendMates writes
// them. mates, when non-nil, is that appendMates output for resp's arrays,
// stored by a cached answer, and is copied instead.
func encodeMatch(buf *bytes.Buffer, resp *MatchResponse, mates []byte) error {
	head := *resp
	head.MateX, head.MateY = nil, nil
	if err := json.NewEncoder(buf).Encode(&head); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - len("}\n"))
	// A bytes.Buffer write cannot fail.
	if mates != nil {
		_, _ = buf.Write(mates)
		_ = buf.WriteByte('\n')
		return nil
	}
	b := appendMates(buf.AvailableBuffer(), resp.MateX, resp.MateY)
	_, _ = buf.Write(append(b, '\n'))
	return nil
}

// appendMates appends the end of a /match body after its other fields:
// `,"mate_x":[…],"mate_y":[…]}`, an empty array left out, as its omitempty
// tag says.
func appendMates(b []byte, mateX, mateY []int32) []byte {
	b = appendInt32s(b, `,"mate_x":[`, mateX)
	b = appendInt32s(b, `,"mate_y":[`, mateY)
	return append(b, '}')
}

func appendInt32s(b []byte, key string, v []int32) []byte {
	if len(v) == 0 {
		return b
	}
	b = append(b, key...)
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// bufPool holds the buffers request bodies are read into and /match answers
// are built in.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf is the largest buffer put back in bufPool, so that one huge
// body or answer does not stay pinned there.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// readBody reads at most limit bytes of r into a pooled buffer, which the
// caller returns with putBuf. The buffer grows with what arrives, never
// with what a header announces.
func readBody(r io.Reader, limit int64) (*bytes.Buffer, error) {
	buf := getBuf()
	if _, err := buf.ReadFrom(io.LimitReader(r, limit)); err != nil {
		putBuf(buf)
		return nil, err
	}
	return buf, nil
}

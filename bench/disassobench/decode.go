package main

import (
	"encoding/json"
	"errors"
	"strconv"

	"disasso/internal/dataset"
)

// decodeEstimates decodes a support answer. The read loop decodes every
// answer, and on the repeat-heavy mix encoding/json alone cost the benchmark
// more CPU than the server spent answering, on a machine the two share. So
// the common case goes through a small scanner for the answer's one shape,
// and anything it does not handle (string escapes, say) falls back to
// encoding/json. Both accept any whitespace, key order and extra keys, so
// how disassod formats its JSON does not change the benchmark's cost.
func decodeEstimates(body []byte) ([]estimate, error) {
	s := scanner{b: body}
	if ests, err := s.response(); err == nil {
		return ests, nil
	}
	var resp struct {
		Estimates []estimate `json:"estimates"`
	}
	err := json.Unmarshal(body, &resp)
	return resp.Estimates, err
}

var errShape = errors.New("unexpected JSON")

// scanner reads the JSON of a support answer.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek returns the next non-space byte, or 0 at the end.
func (s *scanner) peek() byte {
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *scanner) expect(c byte) error {
	if s.peek() != c {
		return errShape
	}
	s.i++
	return nil
}

// object calls field for each key of an object.
func (s *scanner) object(field func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return errShape
		}
	}
}

// array calls elem for each element of an array.
func (s *scanner) array(elem func() error) error {
	if err := s.expect('['); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return errShape
		}
	}
}

// str reads a string without escapes.
func (s *scanner) str() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			s.i++
			return s.b[start : s.i-1], nil
		case '\\':
			return nil, errShape
		}
		s.i++
	}
	return nil, errShape
}

// token reads a number or literal.
func (s *scanner) token() []byte {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c == '-' || c == '+' || c == '.' || c == 'E') {
			break
		}
		s.i++
	}
	return s.b[start:s.i]
}

// number reads a number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() ([]byte, error) {
	t := s.token()
	i := 0
	digits := func() int {
		n := 0
		for i < len(t) && t[i] >= '0' && t[i] <= '9' {
			i, n = i+1, n+1
		}
		return n
	}
	if i < len(t) && t[i] == '-' {
		i++
	}
	if n := digits(); n == 0 || n > 1 && t[i-n] == '0' {
		return nil, errShape
	}
	if i < len(t) && t[i] == '.' {
		i++
		if digits() == 0 {
			return nil, errShape
		}
	}
	if i < len(t) && (t[i] == 'e' || t[i] == 'E') {
		i++
		if i < len(t) && (t[i] == '+' || t[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, errShape
		}
	}
	if i != len(t) {
		return nil, errShape
	}
	return t, nil
}

// int reads an integer that fits in bits, as encoding/json would accept
// it for a Go integer of that size.
func (s *scanner) int(bits uint) (int64, error) {
	t, err := s.number()
	if err != nil {
		return 0, err
	}
	neg := t[0] == '-'
	if neg {
		t = t[1:]
	}
	limit := uint64(1) << (bits - 1) // the magnitude of the most negative value
	var n uint64
	for _, c := range t {
		if c < '0' || c > '9' || n > limit/10 {
			return 0, errShape // a fraction, an exponent or out of range
		}
		n = 10*n + uint64(c-'0')
	}
	if n > limit || n == limit && !neg {
		return 0, errShape
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// skip reads past any value.
func (s *scanner) skip() error {
	start := s.i
	switch s.peek() {
	case '{':
		return s.object(func([]byte) error { return s.skip() })
	case '[':
		return s.array(s.skip)
	case '"':
		_, err := s.str()
		return err
	}
	switch string(s.token()) {
	case "true", "false", "null":
		return nil
	}
	s.i = start
	_, err := s.number()
	return err
}

// estimate reads one estimate. Unless all four fields are present, the
// caller falls back to encoding/json, which also matches keys that differ
// in case.
func (s *scanner) estimate() (estimate, error) {
	var e estimate
	var seen [4]bool
	err := s.object(func(key []byte) error {
		var err error
		switch string(key) {
		case "itemset":
			seen[0] = true
			e.Itemset = make([]dataset.Term, 0, 4)
			err = s.array(func() error {
				t, err := s.int(32)
				e.Itemset = append(e.Itemset, dataset.Term(t))
				return err
			})
		case "lower":
			seen[1] = true
			var n int64
			n, err = s.int(64)
			e.Lower = int(n)
		case "upper":
			seen[2] = true
			var n int64
			n, err = s.int(64)
			e.Upper = int(n)
		case "expected":
			seen[3] = true
			var t []byte
			if t, err = s.number(); err == nil {
				e.Expected, err = strconv.ParseFloat(string(t), 64)
			}
		default:
			err = s.skip()
		}
		return err
	})
	if err == nil && seen != [4]bool{true, true, true, true} {
		err = errShape
	}
	return e, err
}

func (s *scanner) response() ([]estimate, error) {
	var ests []estimate
	err := s.object(func(key []byte) error {
		if string(key) != "estimates" {
			return s.skip()
		}
		return s.array(func() error {
			e, err := s.estimate()
			ests = append(ests, e)
			return err
		})
	})
	if err == nil && s.peek() != 0 {
		err = errShape
	}
	return ests, err
}

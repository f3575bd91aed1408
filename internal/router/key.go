package router

import (
	"bytes"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The line starts the routing key treats specially, and the JSON key
// extractMIR looks for.
var (
	funcLine   = []byte("func @")
	moduleLine = []byte("module ")
	mirKey     = []byte("mir")
)

// The FNV-64a parameters, shared by the routing key and placement.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// routingKey hashes the MIR text of one compile request in one pass over
// its bytes. It skips what never changes an answer: the name on each
// "func @NAME {" line, the "module NAME" header line, whitespace, blank
// lines and "#" comment lines. Renamed, re-indented and re-commented
// copies of a kernel therefore share a key, and so do the JSON and raw
// envelopes of one kernel and a kernel sent alone or as a batch entry.
// Every other byte counts: spellings the parser reads alike (a float
// written two ways, "; succs:" against inline successors, the function
// order of a module) may route apart, which costs cache hits, never
// answer bytes. The hash is FNV-64a, with no per-process seed, so every
// router over one backend list places a kernel on the same node.
func routingKey(mir []byte) uint64 {
	h := uint64(offset64)
	for len(mir) > 0 {
		line := mir
		if i := bytes.IndexByte(mir, '\n'); i >= 0 {
			line, mir = mir[:i], mir[i+1:]
		} else {
			mir = nil
		}
		for len(line) > 0 && isSpace(line[0]) {
			line = line[1:]
		}
		switch {
		case len(line) == 0, line[0] == '#', bytes.HasPrefix(line, moduleLine):
			continue
		case bytes.HasPrefix(line, funcLine):
			line = funcLine
		}
		for _, c := range line {
			if !isSpace(c) {
				h = (h ^ uint64(c)) * prime64
			}
		}
	}
	return h
}

// isSpace reports whether c is ASCII whitespace: space, \t, \n, \v, \f
// or \r, the bytes the parser trims.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// bodyKey is the routing key of a compile request body: the key of its
// decoded "mir" string for a JSON envelope extractMIR reads, of the raw
// bytes for any other body.
func bodyKey(body []byte, contentType string) uint64 {
	if strings.HasPrefix(contentType, "application/json") {
		if mir, ok := extractMIR(body); ok {
			return routingKey(mir)
		}
	}
	return routingKey(body)
}

// extractMIR returns the decoded "mir" string of a JSON compile envelope,
// read in one pass over the body, without encoding/json. It reads a body
// the way json.Unmarshal into server.CompileRequest does: object keys
// match "mir" case-insensitively and the last match wins. ok is false on
// a body it does not read that way: anything but one JSON object of
// scalar values, an escaped key, or a mir value that is not a string or
// holds a UTF-16 surrogate escape or invalid UTF-8. The daemon rejects
// most of those, and the router routes them by their raw bytes.
func extractMIR(body []byte) (mir []byte, ok bool) {
	s := scan{b: body}
	if !s.eat('{') {
		return nil, false
	}
	for more := !s.eat('}'); more; {
		if s.peek() != '"' {
			return nil, false
		}
		start := s.i + 1
		if esc, ok := s.str(nil); !ok || esc {
			return nil, false
		}
		key := s.b[start : s.i-1]
		if !s.eat(':') {
			return nil, false
		}
		if bytes.EqualFold(key, mirKey) {
			if s.peek() != '"' {
				return nil, false
			}
			if mir == nil {
				mir = make([]byte, 0, len(s.b)-s.i)
			}
			mir = mir[:0]
			if _, ok := s.str(&mir); !ok {
				return nil, false
			}
		} else if !s.scalar() {
			return nil, false
		}
		if more = !s.eat('}'); more && !s.eat(',') {
			return nil, false
		}
	}
	if s.peek(); s.i != len(s.b) || !utf8.Valid(mir) {
		return nil, false
	}
	return mir, true
}

// scan is a cursor over a JSON body.
type scan struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the next byte, or 0 at the end.
func (s *scan) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next byte after whitespace.
func (s *scan) eat(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// str consumes the string whose opening quote is at the cursor and
// reports whether it held an escape and whether it is valid JSON. With
// dst set it appends the decoded string to *dst, and fails on a surrogate
// escape, which json.Unmarshal may rewrite.
func (s *scan) str(dst *[]byte) (esc, ok bool) {
	b, i := s.b, s.i+1
	run := i
	for ; i < len(b); i++ {
		c := b[i]
		if plain[c] {
			continue
		}
		if c != '\\' {
			if c == '"' && dst != nil {
				*dst = append(*dst, b[run:i]...)
			}
			s.i = i + 1
			return esc, c == '"'
		}
		r, n := unescape(b[i:])
		if n == 0 || dst != nil && utf16.IsSurrogate(r) {
			return esc, false
		}
		if dst != nil {
			*dst = utf8.AppendRune(append(*dst, b[run:i]...), r)
		}
		esc = true
		i += n - 1
		run = i + 1
	}
	return esc, false
}

// plain holds the bytes a JSON string takes as they are: not a quote,
// not a backslash, not a control byte.
var plain = func() (t [256]bool) {
	for c := ' '; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape decodes the escape sequence at the head of b, which starts
// with a backslash: the rune and the bytes it spans, or n == 0 if the
// sequence is not valid JSON.
func unescape(b []byte) (r rune, n int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\', '/':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(b) < 6 {
			return 0, 0
		}
		for _, c := range b[2:6] {
			switch {
			case '0' <= c && c <= '9':
				c -= '0'
			case 'a' <= c && c <= 'f':
				c -= 'a' - 10
			case 'A' <= c && c <= 'F':
				c -= 'A' - 10
			default:
				return 0, 0
			}
			r = r<<4 | rune(c)
		}
		return r, 6
	}
	return 0, 0
}

// scalar consumes a string, number, true, false or null at the cursor. A
// compile envelope holds nothing else, so an object or array value fails
// the scan instead of being walked.
func (s *scan) scalar() bool {
	switch c := s.peek(); c {
	case '"':
		_, ok := s.str(nil)
		return ok
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if n := len(lit); len(s.b)-s.i >= n && string(s.b[s.i:s.i+n]) == lit {
				s.i += n
				return true
			}
		}
		return false
	}
	return s.number()
}

// number consumes a JSON number at the cursor:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scan) number() bool {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	s.i = i
	return true
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

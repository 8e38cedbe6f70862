package fed

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/dispatch"
)

// This file is the wire codec of the hot endpoint, POST /v1/tasks. Its
// body is read into a pooled buffer and scanned without reflection when
// it keeps to the canonical subset encoding/json itself writes:
// exact-case keys of dispatch.Task, numbers in JSON grammar (the id as a
// plain integer literal), the nested source/dest objects, whitespace,
// and duplicate keys (the last wins; a repeated object merges into the
// first). The body is read only until the bytes read hold a closed
// object, as Decoder.Decode reads it, and what follows is ignored, as
// Decoder.Decode ignores it. Every other body — a folded or escaped key,
// a null, an unknown field, a number out of range, a body whose object
// is not closed within wireCap bytes — is decoded by encoding/json over
// the same stream, so any input decodes exactly as
// json.NewDecoder(body).Decode would decode it, errors included. The
// Assignment answer is appended into the same buffer byte for byte as
// json.Encoder writes it; every other answer is encoded by writeJSON.

// wireCap is the read cap of a body scanned in place. A task body is
// about 230 bytes; serve refuses bodies over 64 KiB.
const wireCap = 4 << 10

// wireBuf is a pooled request and answer buffer, its capacity wireCap.
type wireBuf struct{ b []byte }

var wirePool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, wireCap)} }}

func getBuf() *wireBuf   { return wirePool.Get().(*wireBuf) }
func putBuf(wb *wireBuf) { wirePool.Put(wb) }

// jsonContent is the Content-Type every answer carries, shared so that
// setting it allocates nothing.
var jsonContent = []string{"application/json"}

// decodeTask decodes a POST /v1/tasks body. After each read it scans
// the bytes read so far: a closed canonical object is the answer, and
// no more of the body is read. Otherwise it hands the body to
// encoding/json when the body ended or its read failed (the body is
// not read again), when a byte it holds is outside the subset, and at
// the cap; only a scanner that ran out of bytes reads on.
func decodeTask(wb *wireBuf, body io.Reader) (dispatch.Task, error) {
	wb.b = wb.b[:0]
	for len(wb.b) < wireCap {
		n, err := body.Read(wb.b[len(wb.b):wireCap])
		wb.b = wb.b[:len(wb.b)+n]
		var t dispatch.Task
		s := scanner{b: wb.b}
		if s.task(&t) {
			return t, nil
		}
		switch {
		case err == io.EOF:
			return decodeJSON(wb.b, nil)
		case err != nil:
			return decodeJSON(wb.b, errReader{err})
		case s.i < len(s.b):
			return decodeJSON(wb.b, body)
		}
	}
	return decodeJSON(wb.b, body)
}

// errReader fails every read with err: the read error a body ended on,
// handed to encoding/json after the bytes that came before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeJSON decodes with encoding/json what the scanner declined: the
// bytes read and, when the body goes on, the rest of it.
func decodeJSON(read []byte, rest io.Reader) (dispatch.Task, error) {
	src := io.Reader(bytes.NewReader(read))
	if rest != nil {
		src = io.MultiReader(src, rest)
	}
	var t dispatch.Task
	err := json.NewDecoder(src).Decode(&t)
	return t, err
}

// scanner reads the canonical subset from b. Every method reports
// false on anything outside it, and the caller then hands the body to
// encoding/json. On false, i is where the scanner stopped: len(b) when
// it ran out of bytes, so that more of the body may yet be canonical.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) task(t *dispatch.Task) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return s.int(&t.ID)
		case "publish":
			return s.float(&t.Publish)
		case "source":
			return s.point(&t.Source)
		case "dest":
			return s.point(&t.Dest)
		case "start_by":
			return s.float(&t.StartBy)
		case "end_by":
			return s.float(&t.EndBy)
		case "price":
			return s.float(&t.Price)
		case "wtp":
			return s.float(&t.WTP)
		}
		return false
	})
}

func (s *scanner) point(p *dispatch.Point) bool {
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "lat":
			return s.float(&p.Lat)
		case "lon":
			return s.float(&p.Lon)
		}
		return false
	})
}

// object reads one object, calling member with each key for it to read
// the value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.key()
		if !ok || !s.eat(':') || !member(key) {
			return false
		}
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// key reads a quoted key. No key the scanner knows holds a backslash
// or a control byte, so it stops on one: an escaped key is never read
// as the key it spells.
func (s *scanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// eat skips whitespace and then c.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// number reads a literal in JSON's number grammar. What follows it is
// the caller's to check: "01" reads as 0 followed by a stray 1.
func (s *scanner) number() ([]byte, bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if s.digits() == 0 {
		return nil, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return nil, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// float reads a number as encoding/json stores it in a float64.
func (s *scanner) float(f *float64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*f = v
	return true
}

// int reads a number as encoding/json stores it in an int: ParseInt
// refuses a fraction or an exponent, as it does there.
func (s *scanner) int(n *int) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return false
	}
	*n = int(v)
	return true
}

// writeBody writes an answer already encoded.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header()["Content-Type"] = jsonContent
	w.WriteHeader(status)
	w.Write(b) // an error here is the client gone: no one left to tell
}

// writeAssignment answers a decision. A float encoding/json refuses
// (not finite) goes through writeJSON, which answers 500.
func writeAssignment(w http.ResponseWriter, wb *wireBuf, a dispatch.Assignment) {
	if !finite(a.PickupBy) || !finite(a.DecidedAt) || !finite(a.DecideBy) {
		writeJSON(w, http.StatusOK, a)
		return
	}
	wb.b = appendAssignment(wb.b[:0], a)
	writeBody(w, http.StatusOK, wb.b)
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendAssignment appends a as json.Encoder writes it, newline and
// omitempty fields included. Its floats must be finite.
func appendAssignment(b []byte, a dispatch.Assignment) []byte {
	b = append(b, `{"task_id":`...)
	b = strconv.AppendInt(b, int64(a.TaskID), 10)
	b = append(b, `,"assigned":`...)
	b = strconv.AppendBool(b, a.Assigned)
	b = append(b, `,"driver_id":`...)
	b = strconv.AppendInt(b, int64(a.DriverID), 10)
	if a.PickupBy != 0 {
		b = append(b, `,"pickup_by":`...)
		b = appendFloat(b, a.PickupBy)
	}
	b = append(b, `,"decided_at":`...)
	b = appendFloat(b, a.DecidedAt)
	if a.Pending {
		b = append(b, `,"pending":true`...)
	}
	if a.DecideBy != 0 {
		b = append(b, `,"decide_by":`...)
		b = appendFloat(b, a.DecideBy)
	}
	return append(b, "}\n"...)
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded (1e-07 is written 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

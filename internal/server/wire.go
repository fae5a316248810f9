package server

// The wire encoding of a query response, both halves. The grammar is the
// JSON encoding/json produces for QueryResponse — one object with
// "columns" (strings), "rows" (arrays of scalars) and an optional
// "degraded" — so any JSON client reads it; what is hand-written is the
// path: the handler appends each typed row into a pooled buffer as the plan
// makes it (responseBody), and the Go client scans exactly this grammar back
// into Go-native values.
//
// One number rule lets a cell keep its SQL type across JSON's single number
// type: a DOUBLE is always written with a fraction or an exponent (2.0,
// -0.0, 1e+21), an INTEGER never, and the decoder keys on '.', 'e', 'E'.
// FuzzQueryResponseWire holds both halves to encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/value"
)

// sampleRows is how many rows the decoder reads before it sizes the rest of
// its output by extrapolation.
const sampleRows = 64

// maxPooledBuffer is the largest buffer the pool keeps. A larger one is
// left to the collector: retaining a wide response's buffer would show up
// as live heap for every later three-row response.
const maxPooledBuffer = 1 << 20

// bufPool holds response bodies: the handler's encode target and the
// client's read target.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// getBuffer returns an empty buffer from the pool.
func getBuffer() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// putBuffer gives b back to the pool under the handle it was taken with,
// unless it has grown past maxPooledBuffer.
func putBuffer(bp *[]byte, b []byte) {
	if cap(b) > maxPooledBuffer {
		return
	}
	*bp = b
	bufPool.Put(bp)
}

// A body is a header (appendHeader), its rows, each a comma and an array
// (appendRow), and a trailer (appendTrailer) that makes the first row's
// comma the list's opening bracket.

// appendQueryResponse appends the response body for cols and rows to b,
// newline-terminated as json.Encoder would. It fails, before the caller
// has written anything, on a non-finite DOUBLE, which JSON cannot carry.
func appendQueryResponse(b []byte, cols []string, rows []value.Row, degraded bool) ([]byte, error) {
	b = appendHeader(b, cols)
	at := len(b)
	for r, row := range rows {
		var bad int
		if b, bad = appendRow(b, row); bad >= 0 {
			return b, nonFinite(cols, row, 0, r, bad)
		}
	}
	return appendTrailer(b, at, degraded), nil
}

// appendHeader appends a body's columns and the key of its rows.
func appendHeader(b []byte, cols []string) []byte {
	b = append(b, `{"columns":[`...)
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, c)
	}
	return append(b, `],"rows":`...)
}

// appendRow appends row as an element of the rows list, its comma first. It
// stops at a non-finite DOUBLE and returns that cell's column; -1 when the
// row is whole.
func appendRow(b []byte, row value.Row) ([]byte, int) {
	b = append(b, ',', '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.Kind() {
		case value.KindNull:
			b = append(b, "null"...)
		case value.KindInt:
			b = strconv.AppendInt(b, v.Int(), 10)
		case value.KindFloat:
			f := v.Float()
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return b, i
			}
			b = appendFloat(b, f)
		case value.KindString:
			b = appendString(b, v.Str())
		case value.KindBool:
			b = strconv.AppendBool(b, v.Bool())
		}
	}
	return append(b, ']'), -1
}

// appendTrailer closes a body whose header ends at rows: the first row's
// comma becomes the list's opening bracket, or, with no row, one is added.
func appendTrailer(b []byte, rows int, degraded bool) []byte {
	if len(b) > rows {
		b[rows] = '['
	} else {
		b = append(b, '[')
	}
	b = append(b, ']')
	if degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, '}', '\n')
}

// nonFiniteError is a DOUBLE JSON has no number for: in column column of
// the row-th row, from 0, of chunk chunk of the result.
type nonFiniteError struct {
	chunk, row int
	column     string
	f          float64
}

func (e *nonFiniteError) Error() string {
	return fmt.Sprintf("numeric value out of range: row %d, column %s is %v", e.row+1, e.column, e.f)
}

func nonFinite(cols []string, row value.Row, chunk, r, i int) error {
	return &nonFiniteError{chunk: chunk, row: r, column: columnLabel(cols, i), f: row[i].Float()}
}

// responseBody is the gbj.RowSink a query's response is encoded by, as the
// answering rung's plan makes the rows. A run in one chunk is encoded into
// b itself; a run in several encodes each chunk into a pooled buffer of its
// own, and end appends them to b in chunk order, so the body is the same at
// any worker count. Every rung starts the body over from base.
type responseBody struct {
	b      []byte
	base   int // where the body starts in b
	rows   int // where its header ends
	n      int // the rows encoded into b
	cols   []string
	chunks []chunkBody // a run in several chunks: one per chunk
}

// chunkBody is one chunk's rows, encoded into a pooled buffer.
type chunkBody struct {
	bp *[]byte
	b  []byte
	n  int
}

func (s *responseBody) Start(cols []string) {
	s.release()
	s.cols = cols
	s.b = appendHeader(s.b[:s.base], cols)
	s.rows, s.n = len(s.b), 0
}

func (s *responseBody) Begin(chunks int) {
	if chunks > 1 {
		s.chunks = make([]chunkBody, chunks)
	}
}

func (s *responseBody) Chunk(c int) func(value.Row) error {
	b, n := &s.b, &s.n
	if s.chunks != nil {
		ch := &s.chunks[c]
		ch.bp = getBuffer()
		ch.b = *ch.bp
		b, n = &ch.b, &ch.n
	}
	return func(row value.Row) error {
		var bad int
		if *b, bad = appendRow(*b, row); bad >= 0 {
			return nonFinite(s.cols, row, c, *n, bad)
		}
		*n++
		return nil
	}
}

// end completes the body once the engine has returned err: the chunks in
// order, then the trailer. A non-finite DOUBLE's row is counted from the
// start of the result: every chunk before the failing one is complete, as
// the run reports the error of the lowest chunk that failed.
func (s *responseBody) end(err error, degraded bool) ([]byte, error) {
	defer s.release()
	if err != nil {
		var nf *nonFiniteError
		if errors.As(err, &nf) {
			for _, ch := range s.chunks[:nf.chunk] {
				nf.row += ch.n
			}
		}
		return s.b, err
	}
	size := 0
	for _, ch := range s.chunks {
		size += len(ch.b)
	}
	s.b = slices.Grow(s.b, size)
	for _, ch := range s.chunks {
		s.b = append(s.b, ch.b...)
	}
	return appendTrailer(s.b, s.rows, degraded), nil
}

// release gives the chunks' buffers back to the pool.
func (s *responseBody) release() {
	for _, ch := range s.chunks {
		if ch.bp != nil {
			putBuffer(ch.bp, ch.b)
		}
	}
	s.chunks = nil
}

func columnLabel(cols []string, i int) string {
	if i < len(cols) {
		return strconv.Quote(cols[i])
	}
	return strconv.Itoa(i + 1)
}

// appendFloat appends a finite f the way encoding/json does — shortest
// digits, 'e' form below 1e-6 and from 1e21, the exponent without a leading
// zero — and then ".0" when that left a bare integer.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	if bytes.IndexByte(b[start:], '.') >= 0 {
		return b
	}
	return append(b, '.', '0')
}

// rawByte reports whether c stands for itself inside a JSON string:
// printable ASCII other than the quote and the backslash.
func rawByte(c byte) bool { return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' }

// plainByte reports whether c stands for itself as encoding/json writes a
// string: a rawByte that is not one of the three it escapes for HTML.
func plainByte(c byte) bool { return rawByte(c) && c != '<' && c != '>' && c != '&' }

// appendString appends s as a JSON string. Anything but plain bytes goes
// through json.Marshal, so escaping is encoding/json's by construction.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			q, _ := json.Marshal(s) // cannot fail on a string
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// decodeQueryResponse parses a response body into resp. It accepts what
// appendQueryResponse writes and what encoding/json would write for the
// same response — the three keys once each in any order, whitespace
// between tokens, null for either list — and nothing else: a cell is a
// scalar, and anything unexpected is a protocol error naming its offset.
// Strings are copied out of b, so b may be reused afterwards.
func decodeQueryResponse(b []byte, resp *QueryResponse) error {
	d := wireDecoder{b: b}
	*resp = QueryResponse{}
	if err := d.object(resp); err != nil {
		return err
	}
	if d.skipSpace(); d.i < len(d.b) {
		return d.errorf("data after the response object")
	}
	return nil
}

// wireDecoder is a cursor over a response body.
type wireDecoder struct {
	b []byte
	i int
}

func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("query response, offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

func (d *wireDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *wireDecoder) peek() byte {
	d.skipSpace()
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// expect consumes c after any whitespace.
func (d *wireDecoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("expected %q", c)
	}
	d.i++
	return nil
}

// literal consumes word if the input continues with it.
func (d *wireDecoder) literal(word string) bool {
	if len(d.b)-d.i >= len(word) && string(d.b[d.i:d.i+len(word)]) == word {
		d.i += len(word)
		return true
	}
	return false
}

// open consumes the opening bracket of an array or object and reports
// whether it has a first element, leaving the cursor on it; an empty one is
// consumed whole.
func (d *wireDecoder) open(opening, closing byte) (bool, error) {
	if err := d.expect(opening); err != nil {
		return false, err
	}
	if d.peek() == closing {
		d.i++
		return false, nil
	}
	return true, nil
}

// next, after an element, consumes a comma and reports true with the cursor
// on the next element, or consumes the closing bracket and reports false.
func (d *wireDecoder) next(closing byte) (bool, error) {
	switch d.peek() {
	case ',':
		d.i++
		d.skipSpace()
		return true, nil
	case closing:
		d.i++
		return false, nil
	}
	return false, d.errorf("expected ',' or %q", closing)
}

var responseKeys = [...]string{"columns", "rows", "degraded"}

func (d *wireDecoder) object(resp *QueryResponse) error {
	var seen [len(responseKeys)]bool
	more, err := d.open('{', '}')
	for more && err == nil {
		if err = d.member(resp, &seen); err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// member parses one "key": value pair of the response object.
func (d *wireDecoder) member(resp *QueryResponse, seen *[len(responseKeys)]bool) error {
	at := d.i
	key, err := d.str()
	if err != nil {
		return err
	}
	k := slices.Index(responseKeys[:], key)
	if k < 0 || seen[k] {
		d.i = at
		return d.errorf("unexpected or repeated key %q", key)
	}
	seen[k] = true
	if err := d.expect(':'); err != nil {
		return err
	}
	d.skipSpace()
	switch k {
	case 0:
		return d.columns(resp)
	case 1:
		return d.rows(resp)
	}
	switch {
	case d.literal("true"):
		resp.Degraded = true
	case !d.literal("false"):
		return d.errorf("expected true or false")
	}
	return nil
}

func (d *wireDecoder) columns(resp *QueryResponse) error {
	if d.literal("null") {
		return nil
	}
	resp.Columns = []string{}
	more, err := d.open('[', ']')
	for more && err == nil {
		var s string
		if s, err = d.str(); err == nil {
			resp.Columns = append(resp.Columns, s)
			more, err = d.next(']')
		}
	}
	return err
}

// Row cells are cut from slabs that start at slabMinRows rows of the width
// last seen and double up to slabMaxRows, so a three-row response does not
// pay for a wide one and a wide one allocates once per 256 rows.
const (
	slabMinRows = 4
	slabMaxRows = 256
)

func (d *wireDecoder) rows(resp *QueryResponse) error {
	if d.literal("null") {
		return nil
	}
	var (
		rows     = make([][]any, 0, slabMinRows)
		slab     []any
		slabRows = slabMinRows / 2
		width    = max(len(resp.Columns), 1)
		start    = d.i
	)
	more, err := d.open('[', ']')
	for more && err == nil {
		if len(rows) == sampleRows {
			// Size the outer slice once, from what the sampled rows took.
			perRow := (d.i - start) / sampleRows
			rows = slices.Grow(rows, (len(d.b)-d.i)/perRow+1)
		}
		from := len(slab)
		var cell bool
		cell, err = d.open('[', ']')
		for cell && err == nil {
			if len(slab) == cap(slab) {
				// Slab full, possibly mid-row: the row moves to the next one.
				slabRows = min(slabRows*2, slabMaxRows)
				next := make([]any, 0, max(slabRows*width, 2*(len(slab)-from)))
				slab = append(next, slab[from:]...)
				from = 0
			}
			var v any
			if v, err = d.scalar(); err == nil {
				slab = append(slab, v)
				cell, err = d.next(']')
			}
		}
		if err == nil {
			rows = append(rows, slab[from:len(slab):len(slab)])
			width = max(len(slab)-from, 1)
			more, err = d.next(']')
		}
	}
	resp.Rows = rows
	return err
}

// scalar parses one cell at the cursor.
func (d *wireDecoder) scalar() (any, error) {
	if d.i == len(d.b) {
		return nil, d.errorf("unexpected end")
	}
	switch c := d.b[d.i]; {
	case c == '"':
		return d.str()
	case c == '-' || c >= '0' && c <= '9':
		return d.number()
	case d.literal("null"):
		return nil, nil
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return nil, d.errorf("expected a scalar")
}

// str parses a JSON string at the cursor. One made of raw bytes is copied
// out as it stands; any other is unquoted by encoding/json, so escapes and
// invalid UTF-8 come out as they always have.
func (d *wireDecoder) str() (string, error) {
	if d.i == len(d.b) || d.b[d.i] != '"' {
		return "", d.errorf("expected a string")
	}
	at := d.i
	d.i++
	for d.i < len(d.b) && rawByte(d.b[d.i]) {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '"' {
		d.i++
		return string(d.b[at+1 : d.i-1]), nil
	}
	// The slow path: find the closing quote, then hand the token over.
	for ; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
		if d.b[d.i] == '\\' {
			d.i++
		}
	}
	if d.i >= len(d.b) {
		d.i = at
		return "", d.errorf("unterminated string")
	}
	d.i++
	var s string
	if err := json.Unmarshal(d.b[at:d.i], &s); err != nil {
		d.i = at
		return "", d.errorf("bad string: %v", err)
	}
	return s, nil
}

// number parses a JSON number at the cursor: digits alone are an int64 —
// or, past its range, the nearest float64 — and anything with a fraction or
// an exponent is a float64.
func (d *wireDecoder) number() (any, error) {
	at := d.i
	neg := d.b[d.i] == '-'
	if neg {
		d.i++
	}
	digits := d.i
	var n uint64
	overflow := false
	for ; d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9'; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if n > (math.MaxUint64-c)/10 {
			overflow = true
		}
		n = n*10 + c
	}
	if d.i == digits || d.b[digits] == '0' && d.i > digits+1 {
		d.i = at
		return nil, d.errorf("bad number")
	}
	integral := true
	if d.i < len(d.b) && d.b[d.i] == '.' {
		integral = false
		d.i++
		if !d.digits() {
			d.i = at
			return nil, d.errorf("bad number")
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		integral = false
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			d.i = at
			return nil, d.errorf("bad number")
		}
	}
	if integral && !overflow {
		switch {
		case !neg && n <= math.MaxInt64:
			return int64(n), nil
		case neg && n <= 1<<63:
			return -int64(n), nil
		}
	}
	f, err := strconv.ParseFloat(string(d.b[at:d.i]), 64)
	if err != nil {
		d.i = at
		return nil, d.errorf("bad number: %v", err)
	}
	return f, nil
}

// digits consumes one or more digits and reports whether there were any.
func (d *wireDecoder) digits() bool {
	from := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > from
}

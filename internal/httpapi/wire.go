package httpapi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf16"
	"unicode/utf8"

	"planar/internal/core"
	"planar/internal/kernel"
)

// The wire codec of the query and mutation routes. Their request
// bodies are all flat JSON objects of numbers, strings and number
// arrays, and their replies a few fixed shapes, so both directions are
// written by hand over byte slices: no reflection, no intermediate
// maps, and buffers that are pooled across requests. The decoder
// accepts what encoding/json with DisallowUnknownFields accepted
// before it (the first JSON value of the body, keys matched exactly
// and then case-insensitively, null leaving a field at its zero
// value) and decodes it to the same bits, with one exception: a key
// that appears twice is an error, where encoding/json kept the last.
// The encoders produce encoding/json's bytes, trailing newline
// included.

// maxBodyBytes caps a request body. The decoder reads the whole body
// before parsing it; 1 MiB holds some forty thousand thresholds or
// coordinates at full float precision.
const maxBodyBytes = 1 << 20

// maxBatchThresholds caps the thresholds of one /v1/query/batch
// request. Each threshold materialises and encodes a full answer, so
// the hundreds of thousands a body under maxBodyBytes can carry would
// otherwise let one request exhaust the server's memory.
const maxBatchThresholds = 1024

// maxPooledBytes is the largest buffer a scratch keeps for the next
// request, so one huge answer does not pin its buffers forever.
const maxPooledBytes = 1 << 20

// scratch holds one request's buffers. Nothing decoded or encoded
// aliases it after the handler returns: a read route's a and bs are
// decoded into buffers of their own here and used only until the
// reply is written, every other array and string is copied out, and
// the response is written before release.
type scratch struct {
	body io.LimitedReader // the request body, cut one byte past maxBodyBytes
	in   bytes.Buffer     // request body, at most maxBodyBytes+1 bytes
	tmp  []byte           // a string value or key with its escapes resolved
	nums []float64        // an array's elements before their exact-size copy
	a    []float64        // a read route's "a"
	bs   []float64        // /v1/query/batch's "bs"
	ids  []uint32         // a query's answer, filled by service.DB.AppendQuery
	out  []byte           // response body
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (sc *scratch) release() {
	if cap(sc.out) > maxPooledBytes {
		sc.out = nil
	}
	if 4*cap(sc.ids) > maxPooledBytes {
		sc.ids = nil
	}
	for _, f := range []*[]float64{&sc.nums, &sc.a, &sc.bs} {
		if 8*cap(*f) > maxPooledBytes {
			*f = nil
		}
	}
	scratchPool.Put(sc)
}

// field binds one key of a request object to the variable its value
// decodes into; exactly one of floats, float, text, count and signs is
// set. name is lower-case ASCII. An array of floats is decoded into
// *buf when buf is set, and into a fresh slice when not.
type field struct {
	name   string
	floats *[]float64
	float  *float64
	text   *string
	count  *int
	signs  *[]int8
	buf    *[]float64
}

// errDuplicateField is the decoder's one deliberate departure from
// encoding/json, which lets a repeated key overwrite the earlier one.
var errDuplicateField = errors.New("duplicate field")

// decode reads the request body and decodes its first JSON value into
// fields, answering 413 for an oversized body and 400 for anything
// else it rejects.
func (sc *scratch) decode(w http.ResponseWriter, r *http.Request, fields []field) bool {
	sc.in.Reset()
	sc.body = io.LimitedReader{R: r.Body, N: maxBodyBytes + 1}
	_, err := sc.in.ReadFrom(&sc.body)
	sc.body.R = nil
	if err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return false
	}
	if sc.in.Len() > maxBodyBytes {
		// The rest of the body is left unread, so the connection cannot
		// carry another request: net/http closes it after this reply.
		w.Header()["Connection"] = connectionClose
		fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading request: %w", &http.MaxBytesError{Limit: maxBodyBytes}))
		return false
	}
	if err := sc.decodeObject(sc.in.Bytes(), fields); err != nil {
		fail(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// decoder is a cursor over one request body.
type decoder struct {
	buf []byte
	pos int
	sc  *scratch
}

// decodeObject decodes the first JSON value of body, which must be an
// object holding only the given fields (or null, which sets nothing).
// Bytes after the value are ignored, as json.Decoder ignores them.
func (sc *scratch) decodeObject(body []byte, fields []field) error {
	d := decoder{buf: body, sc: sc}
	switch d.skipSpace() {
	case 0:
		return io.ErrUnexpectedEOF
	case 'n':
		return d.null()
	case '{':
	default:
		return d.errSyntax("looking for beginning of object")
	}
	d.pos++
	if d.skipSpace() == '}' {
		return nil
	}
	var seen uint
	for {
		if d.skipSpace() != '"' {
			return d.errSyntax("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		i := lookup(fields, key)
		if i < 0 {
			return fmt.Errorf("unknown field %q", key)
		}
		if seen&(1<<i) != 0 {
			return fmt.Errorf("%w %s", errDuplicateField, strconv.Quote(fields[i].name))
		}
		seen |= 1 << i
		if d.skipSpace() != ':' {
			return d.errSyntax("after object key")
		}
		d.pos++
		if err := d.value(&fields[i]); err != nil {
			return err
		}
		switch d.skipSpace() {
		case ',':
			d.pos++
		case '}':
			return nil
		default:
			return d.errSyntax("after object key:value pair")
		}
	}
}

// lookup finds the field a key names: an exact match first, then a
// case-insensitive one, as encoding/json resolves struct fields.
func lookup(fields []field, key []byte) int {
	for i := range fields {
		if string(key) == fields[i].name {
			return i
		}
	}
	for i := range fields {
		if strings.EqualFold(string(key), fields[i].name) {
			return i
		}
	}
	return -1
}

// value decodes the value at the cursor into f. null leaves a scalar
// untouched and makes an array nil.
func (d *decoder) value(f *field) error {
	c := d.skipSpace()
	if c == 'n' {
		if err := d.null(); err != nil {
			return err
		}
		if f.floats != nil {
			*f.floats = nil
		}
		if f.signs != nil {
			*f.signs = nil
		}
		return nil
	}
	switch {
	case f.floats != nil:
		return d.floatArray(f)
	case f.signs != nil:
		return d.signArray(f)
	case f.float != nil:
		v, err := d.float()
		if err != nil {
			return d.errField(f, err)
		}
		*f.float = v
	case f.count != nil:
		v, err := d.integer(strconv.IntSize)
		if err != nil {
			return d.errField(f, err)
		}
		*f.count = int(v)
	case f.text != nil:
		if c != '"' {
			return d.errField(f, errors.New("want a string"))
		}
		s, err := d.str()
		if err != nil {
			return err
		}
		*f.text = string(s)
	}
	return nil
}

// errField names the field a value was rejected for. The name goes
// through strconv.Quote, not %q: handing f.name itself to fmt would
// make escape analysis treat everything f points to, the handler's
// request struct included, as escaping, and cost every request an
// allocation.
func (d *decoder) errField(f *field, err error) error {
	return fmt.Errorf("field %s at offset %d: %w", strconv.Quote(f.name), d.pos, err)
}

func (d *decoder) errSyntax(where string) error {
	if d.pos >= len(d.buf) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.buf[d.pos], d.pos, where)
}

// skipSpace advances past JSON whitespace and returns the byte at the
// cursor, or 0 at the end of the body.
func (d *decoder) skipSpace() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// null consumes the literal null.
func (d *decoder) null() error {
	if rest := d.buf[d.pos:]; len(rest) < 4 || string(rest[:4]) != "null" {
		return fmt.Errorf("invalid literal at offset %d", d.pos)
	}
	d.pos += len("null")
	return nil
}

// elements walks a JSON array, calling elem with the cursor on each
// element; elem consumes it.
func (d *decoder) elements(f *field, elem func() error) error {
	if d.skipSpace() != '[' {
		return d.errField(f, errors.New("want an array of numbers"))
	}
	d.pos++
	if d.skipSpace() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return d.errField(f, err)
		}
		switch d.skipSpace() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.errSyntax("after array element")
		}
	}
}

// floatArray decodes an array of numbers into *f.floats: *f.buf
// refilled when f.buf is set, else a fresh slice of exactly the
// array's length; empty, not nil, for []. A null element reads as 0.
func (d *decoder) floatArray(f *field) error {
	into := &d.sc.nums
	if f.buf != nil {
		into = f.buf
	}
	nums := (*into)[:0]
	err := d.elements(f, func() error {
		if d.skipSpace() == 'n' {
			nums = append(nums, 0)
			return d.null()
		}
		v, err := d.float()
		nums = append(nums, v)
		return err
	})
	*into = nums
	switch {
	case err != nil:
		return err
	case f.buf == nil:
		*f.floats = append(make([]float64, 0, len(nums)), nums...)
	case nums == nil:
		*f.floats = []float64{}
	default:
		*f.floats = nums
	}
	return nil
}

// signArray decodes an array of small integers into *f.signs.
func (d *decoder) signArray(f *field) error {
	signs := []int8{}
	err := d.elements(f, func() error {
		if d.skipSpace() == 'n' {
			signs = append(signs, 0)
			return d.null()
		}
		v, err := d.integer(8)
		signs = append(signs, int8(v))
		return err
	})
	if err != nil {
		return err
	}
	*f.signs = signs
	return nil
}

// number consumes one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (d *decoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	if d.peek() == '0' {
		d.pos++
	} else if !d.digits() {
		return nil, errors.New("want a number")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, errors.New("want a digit after the decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, errors.New("want a digit in the exponent")
		}
	}
	return d.buf[start:d.pos], nil
}

// peek returns the byte at the cursor, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// digits consumes a run of decimal digits and reports whether there
// was at least one.
func (d *decoder) digits() bool {
	from := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > from
}

// float decodes one number as encoding/json does into a float64:
// strconv.ParseFloat on the token, out of range rejected.
func (d *decoder) float() (float64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(tok), 64)
}

// integer decodes one number into a signed integer of the given bit
// size; a fraction or an exponent is rejected, as encoding/json does.
func (d *decoder) integer(bits int) (int64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(tok), 10, bits)
}

// str consumes the string literal at the cursor (which is on its
// opening quote) and returns its value with escapes resolved and
// invalid UTF-8 replaced by U+FFFD. The result aliases the body or
// the scratch and is valid until the next call.
func (d *decoder) str() ([]byte, error) {
	d.pos++
	start := d.pos
	// A string of printable ASCII, the usual case, is returned in place.
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		if c == '"' {
			d.pos++
			return d.buf[start : d.pos-1], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		d.pos++
	}
	out := append(d.sc.tmp[:0], d.buf[start:d.pos]...)
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.sc.tmp = out
			return out, nil
		case c < ' ':
			return nil, d.errSyntax("in string literal")
		case c == '\\':
			d.pos++
			if d.pos >= len(d.buf) {
				return nil, io.ErrUnexpectedEOF
			}
			switch e := d.buf[d.pos]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := d.hex4(d.pos + 1)
				if !ok {
					return nil, d.errSyntax("in \\u hexadecimal character escape")
				}
				d.pos += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with a \u low surrogate right
					// after it; alone, either half reads as U+FFFD.
					pair := utf8.RuneError
					if d.pos+2 < len(d.buf) && d.buf[d.pos+1] == '\\' && d.buf[d.pos+2] == 'u' {
						if r2, ok := d.hex4(d.pos + 3); ok {
							pair = utf16.DecodeRune(r, r2)
						}
					}
					if r = pair; r != utf8.RuneError {
						d.pos += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.errSyntax("in string escape code")
			}
			d.pos++
		case c < utf8.RuneSelf:
			out = append(out, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.buf[d.pos:])
			out = utf8.AppendRune(out, r)
			d.pos += size
		}
	}
	return nil, io.ErrUnexpectedEOF
}

// hex4 reads the four hexadecimal digits at buf[at:at+4].
func (d *decoder) hex4(at int) (rune, bool) {
	if at+4 > len(d.buf) {
		return 0, false
	}
	v, err := strconv.ParseUint(string(d.buf[at:at+4]), 16, 32)
	return rune(v), err == nil
}

// send writes a JSON response body in one Write with its length
// declared.
func send(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonType
	h["Content-Length"] = contentLength(len(body))
	_, _ = w.Write(body)
}

// contentLengths holds the Content-Length header value of each body
// length below 4 KiB once a reply of that length has been sent; the
// replies of a route come in a few lengths, so each is formatted once.
var contentLengths [4096]atomic.Pointer[[1]string]

// contentLength returns the Content-Length header value of an n-byte
// body.
func contentLength(n int) []string {
	if n >= len(contentLengths) {
		return []string{strconv.Itoa(n)}
	}
	v := contentLengths[n].Load()
	if v == nil {
		v = &[1]string{strconv.Itoa(n)}
		contentLengths[n].Store(v)
	}
	return v[:]
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest digits that round-trip, exponent form below 1e-6 and from
// 1e21 up. JSON has no NaN or infinity; they are written as null.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// maxIDBytes is the longest an id gets in decimal (4294967295) plus
// the comma after it.
const maxIDBytes = 11

// The id writer's tables, indexed by a group value v below 10⁴. Each
// entry is four bytes in memory order, written with one 32-bit store:
// quads[v] is v's four zero-padded digits, leads[v] its digits without
// the padding, left-aligned, and leadLens[v] how many digits that is.
var (
	quads    [10000]uint32
	leads    [10000]uint32
	leadLens [10000]uint8
)

// idPairs is the AVX2 body's shuffle for two ids below 10⁷, each a
// 64-bit lane of eight ASCII digits whose top byte is a comma
// (appendids_amd64.s). Entry lz0·8 + lz1, for ids with lz0 and lz1
// leading zero digits, packs the first id's digits after its zeros,
// its comma, then the second id's digits and comma: 18 − lz0 − lz1
// bytes, left-aligned. The rest of the entry selects bytes the next
// store overwrites. A count is 1–7 below 10⁷, so entries with a count
// of 0 are never read and stay zero.
var idPairs [64][16]byte

func init() {
	for i := range idPairs {
		lz0, lz1 := i/8, i%8
		if lz0 == 0 || lz1 == 0 {
			continue
		}
		e, n := &idPairs[i], 0
		for _, lane := range [2]struct{ from, comma int }{{lz0, 0}, {8 + lz1, 8}} {
			for j := lane.from; j < lane.comma+8; j++ {
				e[n] = byte(j)
				n++
			}
			e[n] = byte(lane.comma)
			n++
		}
	}
	for v := range quads {
		d := [4]byte{byte('0' + v/1000), byte('0' + v/100%10), byte('0' + v/10%10), byte('0' + v%10)}
		quads[v] = binary.LittleEndian.Uint32(d[:])
		l := 4
		for l > 1 && d[4-l] == '0' {
			l--
		}
		var lead [4]byte
		copy(lead[:], d[4-l:])
		leads[v] = binary.LittleEndian.Uint32(lead[:])
		leadLens[v] = uint8(l)
	}
}

// appendIDs appends ids as a JSON array; a nil slice is [], not null.
// The bytes are strconv.AppendUint's. Room for the longest possible
// array is reserved once, with no append and no capacity check per id.
// Where kernel.HasAVX2 reports AVX2, an assembly body formats four ids
// a step (appendids_amd64.s) and the table loop below writes a reply's
// last 0–3 ids; elsewhere the loop writes them all.
func appendIDs(b []byte, ids []uint32) []byte {
	return appendIDsOn(b, ids, kernel.HasAVX2())
}

// appendIDsOn is appendIDs with the AVX2 body on or off. Off, it is
// the table loop alone: the path of other CPUs and architectures, and
// the reference the tests hold the body to. The loop splits each id at
// 10⁴ and 10⁸ into groups of four digits: the leading group is stored
// left-aligned and the cursor moves by its length, every later group
// is stored whole. A store may write past the digits it means; the
// next store or the comma overwrites that, and the last one's overrun
// stays inside the reservation.
func appendIDsOn(b []byte, ids []uint32, avx2 bool) []byte {
	n := len(b)
	b = slices.Grow(b, maxIDBytes*len(ids)+2)[:n+maxIDBytes*len(ids)+2]
	b[n] = '['
	n++
	if avx2 {
		var done int
		done, n = writeIDsVec(b, n, ids)
		ids = ids[done:]
	}
	for _, id := range ids {
		switch {
		case id < 1e4:
			binary.LittleEndian.PutUint32(b[n:], leads[id])
			n += int(leadLens[id])
		case id < 1e8:
			hi, lo := id/1e4, id%1e4
			binary.LittleEndian.PutUint32(b[n:], leads[hi])
			n += int(leadLens[hi])
			binary.LittleEndian.PutUint32(b[n:], quads[lo])
			n += 4
		default:
			hi, mid, lo := id/1e8, id/1e4%1e4, id%1e4
			binary.LittleEndian.PutUint32(b[n:], leads[hi])
			n += int(leadLens[hi])
			binary.LittleEndian.PutUint32(b[n:], quads[mid])
			binary.LittleEndian.PutUint32(b[n+4:], quads[lo])
			n += 8
		}
		b[n] = ','
		n++
	}
	if b[n-1] == ',' {
		n-- // the closing bracket takes the last comma's place
	}
	b[n] = ']'
	return b[:n+1]
}

// appendStats appends a query's pipeline statistics as the "stats"
// object of a reply.
func appendStats(b []byte, st core.Stats) []byte {
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(st.N), 10)
	b = append(b, `,"accepted":`...)
	b = strconv.AppendInt(b, int64(st.Accepted), 10)
	b = append(b, `,"verified":`...)
	b = strconv.AppendInt(b, int64(st.Verified), 10)
	b = append(b, `,"matched":`...)
	b = strconv.AppendInt(b, int64(st.Matched), 10)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendInt(b, int64(st.Rejected), 10)
	b = append(b, `,"prunedFraction":`...)
	b = appendFloat(b, st.PruningFraction())
	b = append(b, `,"fellBack":`...)
	b = strconv.AppendBool(b, st.FellBack)
	b = append(b, `,"indexUsed":`...)
	b = strconv.AppendInt(b, int64(st.IndexUsed), 10)
	b = append(b, `,"planNanos":`...)
	b = strconv.AppendInt(b, st.PlanNanos, 10)
	b = append(b, `,"execNanos":`...)
	b = strconv.AppendInt(b, st.ExecNanos, 10)
	return append(b, '}')
}

// appendQueryReply appends the /v1/query reply.
func appendQueryReply(b []byte, ids []uint32, st core.Stats) []byte {
	b = append(b, `{"ids":`...)
	b = appendIDs(b, ids)
	b = append(b, `,"stats":`...)
	b = appendStats(b, st)
	return append(b, "}\n"...)
}

// appendBatchReply appends the /v1/query/batch reply: one entry per
// threshold, in request order.
func appendBatchReply(b []byte, bs []float64, ids [][]uint32, sts []core.Stats) []byte {
	b = append(b, `{"queries":[`...)
	for i, threshold := range bs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"b":`...)
		b = appendFloat(b, threshold)
		b = append(b, `,"ids":`...)
		b = appendIDs(b, ids[i])
		b = append(b, `,"stats":`...)
		b = appendStats(b, sts[i])
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendTopKReply appends the /v1/topk reply.
func appendTopKReply(b []byte, res []core.Result, st core.Stats) []byte {
	b = append(b, `{"results":[`...)
	for i, r := range res {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, uint64(r.ID), 10)
		b = append(b, `,"distance":`...)
		b = appendFloat(b, r.Distance)
		b = append(b, '}')
	}
	b = append(b, `],"stats":`...)
	b = appendStats(b, st)
	return append(b, "}\n"...)
}

// appendCountReply appends the /v1/count reply.
func appendCountReply(b []byte, count, lo, hi int, st core.Stats) []byte {
	b = append(b, `{"bounds":{"hi":`...)
	b = strconv.AppendInt(b, int64(hi), 10)
	b = append(b, `,"lo":`...)
	b = strconv.AppendInt(b, int64(lo), 10)
	b = append(b, `},"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, `,"stats":`...)
	b = appendStats(b, st)
	return append(b, "}\n"...)
}

// appendIDReply appends the reply to an append: the id the point got.
func appendIDReply(b []byte, id uint32) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, uint64(id), 10)
	return append(b, "}\n"...)
}

// okReply is the reply to a mutation that returns nothing.
var okReply = []byte("{\"ok\":true}\n")

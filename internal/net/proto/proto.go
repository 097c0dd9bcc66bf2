package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unsafe"
)

// Kind identifies one wire frame type by its leading marker byte.
type Kind byte

// The five RESP-style frame kinds.
const (
	KindSimple Kind = '+' // one-line status string
	KindError  Kind = '-' // one-line error: CODE SP message
	KindInt    Kind = ':' // signed 64-bit integer
	KindBulk   Kind = '$' // length-prefixed byte string
	KindArray  Kind = '*' // length-prefixed sequence of frames
)

// Value is one decoded frame. Exactly one payload field is meaningful
// per Kind: Str for simple/error/bulk, Int for integers, Elems for
// arrays.
type Value struct {
	// Kind is the frame type marker.
	Kind Kind
	// Str holds the payload of simple, error and bulk frames.
	Str []byte
	// Int holds the payload of integer frames.
	Int int64
	// Elems holds the payload of array frames.
	Elems []Value
}

// Simple builds a one-line status frame.
func Simple(s string) Value { return Value{Kind: KindSimple, Str: []byte(s)} }

// ErrorValue builds an error frame whose payload is "CODE message".
func ErrorValue(code, msg string) Value {
	return Value{Kind: KindError, Str: []byte(code + " " + msg)}
}

// Int builds an integer frame.
func Int(n int64) Value { return Value{Kind: KindInt, Int: n} }

// Bulk builds a length-prefixed byte-string frame.
func Bulk(b []byte) Value { return Value{Kind: KindBulk, Str: b} }

// BulkString builds a length-prefixed byte-string frame from a string.
func BulkString(s string) Value { return Value{Kind: KindBulk, Str: []byte(s)} }

// Array builds an array frame from its elements.
func Array(elems ...Value) Value { return Value{Kind: KindArray, Elems: elems} }

// Limits bounds what the decoder accepts. Every field must be
// positive; DefaultLimits supplies the server's production bounds.
type Limits struct {
	// MaxLine bounds one CRLF-terminated line (type marker, digits or
	// inline payload), excluding the CRLF itself.
	MaxLine int
	// MaxBulk bounds one bulk payload in bytes, and also the payload
	// bytes of one whole frame — the bulks, simple strings and errors of
	// an array together — though never below MaxLine, so one line fits.
	MaxBulk int
	// MaxArray bounds an array's element count. Arrays do not nest, so
	// it bounds the elements of one frame too.
	MaxArray int
}

// DefaultLimits are the production decoder bounds: 4 KiB lines, 1 MiB
// bulk payloads and 1 MiB of payload per frame, 1024-element arrays.
func DefaultLimits() Limits {
	return Limits{MaxLine: 4096, MaxBulk: 1 << 20, MaxArray: 1024}
}

// WireError reports a malformed or over-limit frame. The connection
// loop distinguishes it from transport errors: a WireError earns a
// `-ERR proto:` reply before the connection closes, a transport error
// closes silently.
type WireError struct{ msg string }

// Error implements the error interface.
func (e *WireError) Error() string { return "proto: " + e.msg }

// NewWireError builds a typed malformed-frame error, letting the
// connection loop classify its own request-shape violations (for
// example an inline line where an array was required) the same way as
// codec failures.
func NewWireError(msg string) *WireError { return &WireError{msg: msg} }

// ReadInline reads one CRLF-terminated inline command line — the
// telnet-friendly request form — and splits it into a verb and an
// optional single argument spanning the rest of the line. The returned
// slices are copies. Limits and error classification match ReadValue.
func ReadInline(br *bufio.Reader, lim Limits) ([][]byte, error) {
	line, err := readLine(br, lim.MaxLine)
	if err != nil {
		return nil, err
	}
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil, nil
	}
	verb, rest, found := bytes.Cut(line, []byte{' '})
	args := make([][]byte, 0, 2)
	args = append(args, append([]byte(nil), verb...))
	if found {
		if rest = bytes.TrimSpace(rest); len(rest) > 0 {
			args = append(args, append([]byte(nil), rest...))
		}
	}
	return args, nil
}

// ReadValue decodes exactly one frame from br under lim. A clean EOF
// before the first byte returns io.EOF; EOF inside a frame returns
// io.ErrUnexpectedEOF; a malformed or over-limit frame returns a
// *WireError. No byte past the decoded frame is consumed. Together the
// frame's payloads hold at most lim.MaxBulk bytes: a frame past that is
// refused before its next payload is allocated. Arrays are flat: an array
// inside an array is refused at its marker, before any of its elements is
// allocated.
//
// ReadValue is a Decoder run once with fresh storage, so the returned
// Value owns its payload bytes and elements: nothing aliases the reader's
// buffer or any other frame. The payloads share one slab when the frame
// arrived whole, each cut to its own length and capacity, so appending
// to one never writes into another.
func ReadValue(br *bufio.Reader, lim Limits) (Value, error) {
	d := Decoder{br: br, lim: lim}
	return d.Read()
}

// retainBytes bounds the storage a Decoder keeps from one frame to the
// next: after a frame whose payload slab and element slice together hold
// more, both are dropped and the next frame starts fresh. A frame of the
// protocol's own commands needs a few hundred bytes; 16 KiB keeps every
// one of them warm and lets a 1 MiB bulk go once its frame is read.
const retainBytes = 16 << 10

// valueBytes is the size of one Value, for the retention bound.
const valueBytes = int(unsafe.Sizeof(Value{}))

// Decoder decodes frame after frame from one reader into storage it
// keeps: one element slice and one payload slab, so a warm decoder
// allocates nothing per frame. A Value that Read returns — its payloads
// and its elements — is valid until the next Read; a caller that keeps
// any of it longer copies it. Limits, error classification and the
// no-read-past-the-frame rule are ReadValue's. A Decoder is not safe for
// concurrent use.
type Decoder struct {
	br    *bufio.Reader
	lim   Limits
	elems []Value // array elements, reused by every frame
	slab  []byte  // payload bytes; each frame cuts from its start
	left  int     // payload bytes the current frame may still hold
}

// NewDecoder returns a Decoder reading frames from br under lim.
func NewDecoder(br *bufio.Reader, lim Limits) *Decoder {
	return &Decoder{br: br, lim: lim}
}

// Read decodes the next frame. A payload that does not fit the slab's
// room starts a new, larger slab, which the decoder keeps for later
// frames; storage past the retention bound is dropped after the frame.
//
//saqp:hotpath
func (d *Decoder) Read() (Value, error) {
	d.slab, d.left = d.slab[:0], max(d.lim.MaxBulk, d.lim.MaxLine)
	v, err := d.value(true)
	if cap(d.slab)+cap(d.elems)*valueBytes > retainBytes {
		d.slab, d.elems = nil, nil
	}
	return v, err
}

// cut charges a payload of n bytes against the frame's budget and
// returns room for it plus extra terminator bytes, cut from the slab with
// capacity equal to its length. A payload that does not fit the slab's
// room starts a new slab of the payload plus what br holds buffered, or
// of twice the old capacity up to the retention bound, whichever is
// larger: a slab past the bound is dropped after its frame, so doubling
// past it would only add to what the frame costs. What br holds covers
// the rest of the frame when it arrived whole; that size is a hint, never
// a read.
func (d *Decoder) cut(n, extra int) ([]byte, error) {
	if n > d.left {
		return nil, &WireError{msg: fmt.Sprintf("frame payload exceeds limit: %d more bytes with %d left", n, d.left)} //lint:allow saqpvet/allocfree a malformed frame ends its connection; its error is built once
	}
	d.left -= n
	n += extra
	off := len(d.slab)
	if cap(d.slab)-off < n {
		d.slab, off = make([]byte, 0, max(n+d.br.Buffered(), min(2*cap(d.slab), retainBytes))), 0 //lint:allow saqpvet/allocfree grows only while a decoder warms up, or for a frame past the retention bound; TestHotPathAllocs proves a warm Read allocates nothing
	}
	d.slab = d.slab[:off+n]
	return d.slab[off : off+n : off+n], nil
}

// value decodes one frame, the top-level one or an array element,
// cutting its payloads from the decoder's slab.
func (d *Decoder) value(top bool) (Value, error) {
	br, lim := d.br, d.lim
	marker, err := br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch Kind(marker) {
	case KindSimple, KindError:
		line, err := readLine(br, lim.MaxLine)
		if err != nil {
			return Value{}, err
		}
		str, err := d.cut(len(line), 0)
		if err != nil {
			return Value{}, err
		}
		copy(str, line)
		return Value{Kind: Kind(marker), Str: str}, nil
	case KindInt:
		line, err := readLine(br, lim.MaxLine)
		if err != nil {
			return Value{}, err
		}
		n, ok := parseInt(line)
		if !ok {
			return Value{}, &WireError{msg: fmt.Sprintf("bad integer %.32q", line)} //lint:allow saqpvet/allocfree a malformed frame ends its connection; its error is built once
		}
		return Value{Kind: KindInt, Int: n}, nil
	case KindBulk:
		n, err := readLength(br, lim.MaxLine, lim.MaxBulk, "bulk")
		if err != nil {
			return Value{}, err
		}
		buf, err := d.cut(n, 2)
		if err != nil {
			return Value{}, err
		}
		if _, err := io.ReadFull(br, buf); err != nil {
			return Value{}, eofErr(err)
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Value{}, errBulkCRLF
		}
		return Value{Kind: KindBulk, Str: buf[:n:n]}, nil
	case KindArray:
		if !top {
			return Value{}, errNestedArray
		}
		n, err := readLength(br, lim.MaxLine, lim.MaxArray, "array")
		if err != nil {
			return Value{}, err
		}
		if cap(d.elems) < n {
			d.elems = make([]Value, max(n, min(2*cap(d.elems), retainBytes/valueBytes))) //lint:allow saqpvet/allocfree grows only while a decoder warms up; TestHotPathAllocs proves a warm Read allocates nothing
		}
		elems := d.elems[:n:n]
		for i := range elems {
			if elems[i], err = d.value(false); err != nil {
				return Value{}, eofErr(err)
			}
		}
		return Value{Kind: KindArray, Elems: elems}, nil
	default:
		return Value{}, &WireError{msg: fmt.Sprintf("unknown frame marker %q", marker)} //lint:allow saqpvet/allocfree a malformed frame ends its connection; its error is built once
	}
}

// The fixed decode errors, built once.
var (
	errBulkCRLF    = NewWireError("bulk payload missing CRLF terminator")
	errNestedArray = NewWireError("array inside an array")
	errLineCRLF    = NewWireError("line missing CRLF terminator")
)

// readLength reads a length header line of at most maxLine bytes and
// returns the length, refusing one that is negative or past limit.
func readLength(br *bufio.Reader, maxLine, limit int, what string) (int, error) {
	line, err := readLine(br, maxLine)
	if err != nil {
		return 0, err
	}
	n, ok := parseInt(line)
	switch {
	case !ok || n < 0:
		return 0, &WireError{msg: fmt.Sprintf("bad %s length %.32q", what, line)} //lint:allow saqpvet/allocfree a malformed frame ends its connection; its error is built once
	case n > int64(limit):
		return 0, &WireError{msg: fmt.Sprintf("%s length %d exceeds limit %d", what, n, limit)} //lint:allow saqpvet/allocfree a malformed frame ends its connection; its error is built once
	}
	return int(n), nil
}

// readLine reads one CRLF-terminated line of at most max bytes
// (excluding the CRLF) and returns it without the terminator. The
// returned slice aliases the reader's buffer and is valid only until
// the next read.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull || err == nil && len(line) > max+2 {
		return nil, &WireError{msg: fmt.Sprintf("line exceeds %d bytes", max)} //lint:allow saqpvet/allocfree a malformed frame ends its connection; its error is built once
	}
	if err != nil {
		return nil, eofErr(err)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errLineCRLF
	}
	return line[:len(line)-2], nil
}

// eofErr maps a mid-frame EOF to io.ErrUnexpectedEOF so callers can
// tell a truncated frame from a clean end of stream.
func eofErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// parseInt parses a signed decimal integer without allocating. It
// accepts only the canonical form — rejecting empty input, junk
// characters, bare "-", leading zeros, "-0" and int64 overflow — so
// every accepted frame re-encodes to the exact input bytes.
//
//saqp:hotpath
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
		if len(b) == 1 {
			return 0, false
		}
	}
	if b[i] == '0' && (neg || len(b)-i > 1) {
		return 0, false
	}
	var n int64
	for ; i < len(b); i++ {
		d := b[i]
		if d < '0' || d > '9' {
			return 0, false
		}
		if n > (math.MaxInt64-int64(d-'0'))/10 {
			return 0, false
		}
		n = n*10 + int64(d-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// Encoder writes frames through one bufio.Writer with a sticky error:
// after any write fails, further calls are no-ops and Flush reports the
// first failure. The integer and float scratch buffers live in the
// struct, so steady-state encoding allocates nothing.
type Encoder struct {
	w   *bufio.Writer
	err error
	num [32]byte // strconv scratch for integers and length prefixes
	flt [32]byte // BulkFloat's payload, apart from num so it outlives head
}

// NewEncoder wraps w in a frame encoder.
func NewEncoder(w *bufio.Writer) *Encoder { return &Encoder{w: w} }

// Flush drains the underlying writer and returns the encoder's first
// error (write or flush).
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	e.err = e.w.Flush()
	return e.err
}

// setErr latches the first write error.
//
//saqp:hotpath
func (e *Encoder) setErr(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// crlf writes a frame terminator.
//
//saqp:hotpath
func (e *Encoder) crlf() {
	if e.err != nil {
		return
	}
	if err := e.w.WriteByte('\r'); err != nil {
		e.setErr(err)
		return
	}
	e.setErr(e.w.WriteByte('\n'))
}

// head writes a marker-plus-integer line (integer frames and bulk or
// array length prefixes).
//
//saqp:hotpath
func (e *Encoder) head(marker byte, n int64) {
	if e.err != nil {
		return
	}
	if err := e.w.WriteByte(marker); err != nil {
		e.setErr(err)
		return
	}
	b := strconv.AppendInt(e.num[:0], n, 10)
	if _, err := e.w.Write(b); err != nil {
		e.setErr(err)
		return
	}
	e.crlf()
}

// Simple writes a one-line status frame. s must not contain CR or LF.
//
//saqp:hotpath
func (e *Encoder) Simple(s string) {
	if e.err != nil {
		return
	}
	if err := e.w.WriteByte(byte(KindSimple)); err != nil {
		e.setErr(err)
		return
	}
	if _, err := e.w.WriteString(s); err != nil {
		e.setErr(err)
		return
	}
	e.crlf()
}

// Error writes an error frame: "-CODE message". Neither part may
// contain CR or LF (see Sanitize).
//
//saqp:hotpath
func (e *Encoder) Error(code, msg string) {
	if e.err != nil {
		return
	}
	if err := e.w.WriteByte(byte(KindError)); err != nil {
		e.setErr(err)
		return
	}
	if _, err := e.w.WriteString(code); err != nil {
		e.setErr(err)
		return
	}
	if err := e.w.WriteByte(' '); err != nil {
		e.setErr(err)
		return
	}
	if _, err := e.w.WriteString(msg); err != nil {
		e.setErr(err)
		return
	}
	e.crlf()
}

// Int writes an integer frame.
//
//saqp:hotpath
func (e *Encoder) Int(n int64) { e.head(byte(KindInt), n) }

// Bulk writes a length-prefixed byte-string frame.
//
//saqp:hotpath
func (e *Encoder) Bulk(b []byte) {
	e.head(byte(KindBulk), int64(len(b)))
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(b); err != nil {
		e.setErr(err)
		return
	}
	e.crlf()
}

// BulkString writes a length-prefixed byte-string frame from a string
// without converting it to a byte slice.
//
//saqp:hotpath
func (e *Encoder) BulkString(s string) {
	e.head(byte(KindBulk), int64(len(s)))
	if e.err != nil {
		return
	}
	if _, err := e.w.WriteString(s); err != nil {
		e.setErr(err)
		return
	}
	e.crlf()
}

// BulkFloat writes a bulk frame holding v formatted with prec decimal
// places ('f' format: no exponent, fixed precision, so equal values
// always serialize to equal bytes).
//
//saqp:hotpath
func (e *Encoder) BulkFloat(v float64, prec int) {
	if e.err != nil {
		return
	}
	b := strconv.AppendFloat(e.flt[:0], v, 'f', prec, 64)
	e.head(byte(KindBulk), int64(len(b)))
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(b); err != nil {
		e.setErr(err)
		return
	}
	e.crlf()
}

// Array writes an array header; the caller then writes exactly n
// element frames.
//
//saqp:hotpath
func (e *Encoder) Array(n int) { e.head(byte(KindArray), int64(n)) }

// AppendValue appends v's canonical encoding to dst: the one Value to
// bytes encoder, which tests and the fuzzer compare decoded frames by.
func AppendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindSimple, KindError:
		dst = append(dst, byte(v.Kind))
		dst = append(dst, v.Str...)
	case KindInt:
		dst = append(dst, byte(KindInt))
		dst = strconv.AppendInt(dst, v.Int, 10)
	case KindBulk:
		dst = append(dst, byte(KindBulk))
		dst = strconv.AppendInt(dst, int64(len(v.Str)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, v.Str...)
	case KindArray:
		dst = append(dst, byte(KindArray))
		dst = strconv.AppendInt(dst, int64(len(v.Elems)), 10)
		dst = append(dst, '\r', '\n')
		for _, el := range v.Elems {
			dst = AppendValue(dst, el)
		}
		return dst
	}
	return append(dst, '\r', '\n')
}

// Sanitize returns s with CR and LF replaced by spaces and the result
// clipped to a sane reply length, making arbitrary error text safe to
// embed in a one-line error frame.
func Sanitize(s string) string {
	const max = 256
	if len(s) > max {
		s = s[:max]
	}
	clean := []byte(s)
	for i, c := range clean {
		if c == '\r' || c == '\n' {
			clean[i] = ' '
		}
	}
	return string(clean)
}

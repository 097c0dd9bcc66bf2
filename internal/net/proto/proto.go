package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
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

// Equal reports deep equality of two frames: same kind and same
// payload, element-wise for arrays.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.Int == o.Int
	case KindArray:
		if len(v.Elems) != len(o.Elems) {
			return false
		}
		for i := range v.Elems {
			if !v.Elems[i].Equal(o.Elems[i]) {
				return false
			}
		}
		return true
	default:
		return bytes.Equal(v.Str, o.Str)
	}
}

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

// wireErrf builds a *WireError with a formatted message.
func wireErrf(format string, args ...any) error {
	return &WireError{msg: fmt.Sprintf(format, args...)}
}

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
// *WireError. The returned Value owns its payload bytes (nothing
// aliases the reader's buffer), and no byte past the decoded frame is
// consumed. The payloads of one frame share one slab, each cut to its
// own length and capacity, so appending to one never writes into
// another. Together they hold at most lim.MaxBulk bytes: a frame past
// that is refused before its next payload is allocated. Arrays are flat:
// an array inside an array is refused at its marker, before any of its
// elements is allocated.
func ReadValue(br *bufio.Reader, lim Limits) (Value, error) {
	f := frame{left: max(lim.MaxBulk, lim.MaxLine)}
	return readValue(br, lim, true, &f)
}

// frame is the decoding state one top-level frame's payloads share: the
// slab they are cut from and the payload bytes the frame may still hold.
type frame struct {
	slab []byte
	left int
}

// cut charges a payload of n bytes against the frame's budget and
// returns room for it plus extra terminator bytes from the frame's slab.
// The slab is made at the frame's first payload with room for the payload
// plus what br holds buffered, which covers the rest of the frame when it
// arrived whole; that size is a hint, never a read, and a payload that
// does not fit what is left gets its own allocation.
func cut(f *frame, n, extra int, br *bufio.Reader) ([]byte, error) {
	if n > f.left {
		return nil, wireErrf("frame payload exceeds limit: %d more bytes with %d left", n, f.left)
	}
	f.left -= n
	n += extra
	if f.slab == nil {
		f.slab = make([]byte, 0, n+br.Buffered())
	}
	s, off := f.slab, len(f.slab)
	if cap(s)-off < n {
		return make([]byte, n), nil
	}
	f.slab = s[:off+n]
	return s[off : off+n : off+n], nil
}

// readValue decodes one frame, the top-level one or an array element,
// cutting its payloads from the top-level frame's slab.
func readValue(br *bufio.Reader, lim Limits, top bool, f *frame) (Value, error) {
	marker, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Value{}, io.EOF
		}
		return Value{}, err
	}
	switch Kind(marker) {
	case KindSimple, KindError:
		line, err := readLine(br, lim.MaxLine)
		if err != nil {
			return Value{}, err
		}
		str, err := cut(f, len(line), 0, br)
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
			return Value{}, wireErrf("bad integer %q", clip(line))
		}
		return Value{Kind: KindInt, Int: n}, nil
	case KindBulk:
		n, err := readLength(br, lim, "bulk")
		if err != nil {
			return Value{}, err
		}
		if n > int64(lim.MaxBulk) {
			return Value{}, wireErrf("bulk length %d exceeds limit %d", n, lim.MaxBulk)
		}
		buf, err := cut(f, int(n), 2, br)
		if err != nil {
			return Value{}, err
		}
		if _, err := io.ReadFull(br, buf); err != nil {
			return Value{}, eofErr(err)
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Value{}, wireErrf("bulk payload missing CRLF terminator")
		}
		return Value{Kind: KindBulk, Str: buf[:n:n]}, nil
	case KindArray:
		if !top {
			return Value{}, wireErrf("array inside an array")
		}
		n, err := readLength(br, lim, "array")
		if err != nil {
			return Value{}, err
		}
		if n > int64(lim.MaxArray) {
			return Value{}, wireErrf("array length %d exceeds limit %d", n, lim.MaxArray)
		}
		elems := make([]Value, 0, n)
		for i := int64(0); i < n; i++ {
			el, err := readValue(br, lim, false, f)
			if err != nil {
				return Value{}, eofErr(err)
			}
			elems = append(elems, el)
		}
		return Value{Kind: KindArray, Elems: elems}, nil
	default:
		return Value{}, wireErrf("unknown frame marker %q", marker)
	}
}

// readLength reads and validates a non-negative length header line.
func readLength(br *bufio.Reader, lim Limits, what string) (int64, error) {
	line, err := readLine(br, lim.MaxLine)
	if err != nil {
		return 0, err
	}
	n, ok := parseInt(line)
	if !ok || n < 0 {
		return 0, wireErrf("bad %s length %q", what, clip(line))
	}
	return n, nil
}

// readLine reads one CRLF-terminated line of at most max bytes
// (excluding the CRLF) and returns it without the terminator. The
// returned slice aliases the reader's buffer and is valid only until
// the next read.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, wireErrf("line exceeds %d bytes", max)
	}
	if err != nil {
		return nil, eofErr(err)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, wireErrf("line missing CRLF terminator")
	}
	line = line[:len(line)-2]
	if len(line) > max {
		return nil, wireErrf("line exceeds %d bytes", max)
	}
	return line, nil
}

// eofErr maps a mid-frame EOF to io.ErrUnexpectedEOF so callers can
// tell a truncated frame from a clean end of stream.
func eofErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// clip bounds an untrusted byte string for inclusion in an error
// message.
func clip(b []byte) string {
	const max = 32
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
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
// after any write fails, further calls are no-ops and Err (or Flush)
// reports the first failure. The integer and float scratch buffers
// live in the struct, so steady-state encoding allocates nothing.
type Encoder struct {
	w   *bufio.Writer
	err error
	num [32]byte // strconv scratch for integer and float payloads
}

// NewEncoder wraps w in a frame encoder.
func NewEncoder(w *bufio.Writer) *Encoder { return &Encoder{w: w} }

// Err returns the first write error, or nil.
func (e *Encoder) Err() error { return e.err }

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

// line writes one complete frame line: marker, payload, CRLF.
//
//saqp:hotpath
func (e *Encoder) line(marker byte, payload []byte) {
	if e.err != nil {
		return
	}
	if err := e.w.WriteByte(marker); err != nil {
		e.setErr(err)
		return
	}
	if _, err := e.w.Write(payload); err != nil {
		e.setErr(err)
		return
	}
	e.crlf()
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
	b := strconv.AppendFloat(e.num[:0], v, 'f', prec, 64)
	e.head(byte(KindBulk), int64(len(b)))
	if e.err != nil {
		return
	}
	// Reformat: head reused the scratch buffer for the length digits.
	b = strconv.AppendFloat(e.num[:0], v, 'f', prec, 64)
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

// Value writes one decoded frame back to the wire in canonical form.
// Re-encoding a frame produced by ReadValue reproduces its exact
// bytes (the fuzz round-trip property).
//
//saqp:hotpath
func (e *Encoder) Value(v Value) {
	switch v.Kind {
	case KindSimple, KindError:
		e.line(byte(v.Kind), v.Str)
	case KindInt:
		e.Int(v.Int)
	case KindBulk:
		e.Bulk(v.Str)
	case KindArray:
		e.Array(len(v.Elems))
		for _, el := range v.Elems {
			e.Value(el)
		}
	default:
		e.setErr(errUnknownKind)
	}
}

// errUnknownKind is a fixed sentinel so the hot encode path never
// formats an error message.
var errUnknownKind = &WireError{msg: "encode: unknown frame kind"}

// AppendValue appends v's canonical encoding to dst. It is the
// slice-based twin of Encoder.Value for callers (tests, the fuzzer)
// that want bytes rather than a stream.
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

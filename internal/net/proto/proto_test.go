package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// decode parses one frame from raw under lim and returns how many
// bytes were consumed alongside the value.
func decode(t *testing.T, raw string, lim Limits) (Value, int, error) {
	t.Helper()
	br := bufio.NewReaderSize(strings.NewReader(raw), lim.MaxLine+2)
	v, err := ReadValue(br, lim)
	rest, rerr := io.ReadAll(br)
	if rerr != nil {
		t.Fatalf("draining reader: %v", rerr)
	}
	return v, len(raw) - len(rest), err
}

func TestDecodeValid(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want Value
	}{
		{"simple", "+PONG\r\n", Simple("PONG")},
		{"simple empty", "+\r\n", Simple("")},
		{"error", "-BUSY queue deep\r\n", ErrorValue("BUSY", "queue deep")},
		{"int", ":42\r\n", Int(42)},
		{"int negative", ":-7\r\n", Int(-7)},
		{"int zero", ":0\r\n", Int(0)},
		{"bulk", "$5\r\nhello\r\n", BulkString("hello")},
		{"bulk empty", "$0\r\n\r\n", BulkString("")},
		{"bulk binary", "$4\r\na\x00b\r\r\n", Bulk([]byte{'a', 0, 'b', '\r'})},
		{"array empty", "*0\r\n", Array()},
		{"array flat", "*2\r\n$4\r\nPING\r\n:1\r\n", Array(BulkString("PING"), Int(1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, n, err := decode(t, tc.raw, DefaultLimits())
			if err != nil {
				t.Fatalf("ReadValue(%q): %v", tc.raw, err)
			}
			if n != len(tc.raw) {
				t.Errorf("consumed %d bytes of %d — decoder must not under- or over-read", n, len(tc.raw))
			}
			if !v.Equal(tc.want) {
				t.Errorf("decoded %+v, want %+v", v, tc.want)
			}
			if got := AppendValue(nil, v); string(got) != tc.raw {
				t.Errorf("re-encode = %q, want the canonical input %q", got, tc.raw)
			}
		})
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"unknown marker", "?what\r\n"},
		{"bare LF line", "+PONG\n"},
		{"junk int", ":12a\r\n"},
		{"empty int", ":\r\n"},
		{"bare minus", ":-\r\n"},
		{"int overflow", ":92233720368547758070\r\n"},
		{"int leading zero", ":007\r\n"},
		{"int negative zero", ":-0\r\n"},
		{"negative bulk length", "$-1\r\n"},
		{"junk bulk length", "$five\r\n"},
		{"bulk payload missing CRLF", "$3\r\nabcXY"},
		{"negative array length", "*-1\r\n"},
		{"junk array length", "*x\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := decode(t, tc.raw, DefaultLimits())
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("ReadValue(%q) = %v, want *WireError", tc.raw, err)
			}
		})
	}
}

func TestDecodeTruncated(t *testing.T) {
	// Every strict prefix of a valid multi-byte stream must fail with
	// ErrUnexpectedEOF (mid-frame) or io.EOF (empty input), never hang,
	// panic, or succeed.
	full := "*2\r\n$4\r\nPING\r\n:12\r\n"
	for cut := 0; cut < len(full); cut++ {
		_, _, err := decode(t, full[:cut], DefaultLimits())
		if cut == 0 {
			if !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("cut=0: got %v, want clean io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut=%d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestDecodeLimits(t *testing.T) {
	lim := Limits{MaxLine: 8, MaxBulk: 4, MaxArray: 2}
	cases := []struct {
		name string
		raw  string
	}{
		{"line over limit", "+" + strings.Repeat("a", 9) + "\r\n"},
		{"bulk over limit", "$5\r\nhello\r\n"},
		{"array over limit", "*3\r\n:1\r\n:2\r\n:3\r\n"},
		{"nesting over limit", "*1\r\n*0\r\n"}, // an array inside an array
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := decode(t, tc.raw, lim)
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("ReadValue(%q) = %v, want *WireError", tc.raw, err)
			}
		})
	}
	// At-limit inputs must still decode.
	for _, ok := range []string{
		"+" + strings.Repeat("a", 8) + "\r\n",
		"$4\r\nhell\r\n",
		"*2\r\n:1\r\n:2\r\n",
	} {
		if _, _, err := decode(t, ok, lim); err != nil {
			t.Errorf("ReadValue(%q) at limit: %v", ok, err)
		}
	}
}

// TestDecodeFrameBudget: MaxBulk bounds the payload bytes of a whole
// frame, not only of each bulk. Two 600 KiB bulks each fit the default
// 1 MiB bulk limit, but their array is refused with a *WireError at the
// second one's header — before that payload is read or allocated — while
// two bulks of 512 KiB, exactly the budget, still decode, allocating about
// their own size.
func TestDecodeFrameBudget(t *testing.T) {
	lim := DefaultLimits()
	twoBulks := func(n int) []byte {
		return AppendValue(nil, Array(Bulk(bytes.Repeat([]byte{'x'}, n)), Bulk(bytes.Repeat([]byte{'y'}, n))))
	}

	raw := twoBulks(600 << 10)
	rd := bytes.NewReader(raw)
	br := bufio.NewReaderSize(rd, lim.MaxLine+2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadValue(br, lim)
	runtime.ReadMemStats(&after)
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("two 600 KiB bulks: ReadValue = %v, want *WireError", err)
	}
	if unread := rd.Len() + br.Buffered(); unread != 600<<10+2 {
		t.Errorf("%d bytes left unread, want the second payload and its CRLF (%d)", unread, 600<<10+2)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the frame allocated %d bytes, want less than one payload past the first", got)
	}

	// An accepted frame's slabs stay near its payload budget: a payload
	// that outgrows the slab starts one of its own size (plus what is
	// buffered), not twice the old one. 64 KiB of slack covers the
	// buffered-bytes hint and a slab up to the 16 KiB retention bound.
	const slack = 64 << 10
	raw = twoBulks(512 << 10)
	var v Value
	runtime.ReadMemStats(&before)
	v, err = ReadValue(bufio.NewReaderSize(bytes.NewReader(raw), lim.MaxLine+2), lim)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("two 512 KiB bulks, exactly the frame budget: %v", err)
	}
	if len(v.Elems) != 2 || len(v.Elems[1].Str) != 512<<10 {
		t.Fatalf("decoded %d elements", len(v.Elems))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20+slack {
		t.Errorf("two 512 KiB bulks allocated %d bytes, want less than %d", got, 1<<20+slack)
	}

	// A big bulk whose header arrives alone gets a slab of exactly its
	// size; the small bulk after it must not double that slab.
	const bigN = 1<<20 - 1024
	raw = AppendValue(nil, Array(Bulk(bytes.Repeat([]byte{'x'}, bigN)), Bulk(bytes.Repeat([]byte{'y'}, 500))))
	head := bytes.IndexByte(raw, 'x') // the array and first bulk headers
	rd2 := io.MultiReader(bytes.NewReader(raw[:head]), bytes.NewReader(raw[head:]))
	runtime.ReadMemStats(&before)
	v, err = ReadValue(bufio.NewReaderSize(rd2, lim.MaxLine+2), lim)
	runtime.ReadMemStats(&after)
	if err != nil || len(v.Elems) != 2 || len(v.Elems[0].Str) != bigN || len(v.Elems[1].Str) != 500 {
		t.Fatalf("big bulk then small: %d elements, %v", len(v.Elems), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= bigN+slack {
		t.Errorf("a %d-byte bulk then a 500-byte one allocated %d bytes, want less than %d", bigN, got, bigN+slack)
	}
}

// TestDecodeFrameElements: arrays are flat, so MaxArray bounds the
// elements of a whole frame. 1,024 arrays of 1,024 empty arrays fit every
// per-array limit and hold no payload at all, yet would make 64 MiB of
// Values out of a 4 MiB frame; the decoder refuses it at its second
// header, having read eight bytes and allocated one 1,024-element slice.
// A flat array of 1,024 bulks, exactly MaxArray, still decodes.
func TestDecodeFrameElements(t *testing.T) {
	lim := DefaultLimits()
	raw := []byte("*1024\r\n")
	for i := 0; i < 1024; i++ {
		raw = append(raw, "*1024\r\n"...)
		raw = append(raw, strings.Repeat("*0\r\n", 1024)...)
	}
	rd := bytes.NewReader(raw)
	br := bufio.NewReaderSize(rd, lim.MaxLine+2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadValue(br, lim)
	runtime.ReadMemStats(&after)
	var we *WireError
	if !errors.As(err, &we) || !strings.Contains(err.Error(), "array inside an array") {
		t.Fatalf("1,024 × 1,024 empty arrays: ReadValue = %v, want *WireError for a nested array", err)
	}
	if read := len(raw) - rd.Len() - br.Buffered(); read != len("*1024\r\n*") {
		t.Errorf("refusing the frame read %d of its %d bytes, want its first header and the second's marker", read, len(raw))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Errorf("refusing the frame allocated %d bytes, want one 64 KiB element slice at most", got)
	}

	flat := make([]Value, lim.MaxArray)
	for i := range flat {
		flat[i] = BulkString("x")
	}
	v, err := ReadValue(bufio.NewReaderSize(bytes.NewReader(AppendValue(nil, Array(flat...))), lim.MaxLine+2), lim)
	if err != nil {
		t.Fatalf("1,024 bulks, exactly MaxArray: %v", err)
	}
	if len(v.Elems) != lim.MaxArray {
		t.Fatalf("decoded %d elements", len(v.Elems))
	}
}

func TestEncoderStreamAndStickyError(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(bufio.NewWriter(&buf))
	e.Simple("OK")
	e.Error("BUSY", "queue deep")
	e.Int(-3)
	e.Bulk([]byte("hi"))
	e.BulkString("yo")
	e.BulkFloat(1.5, 3)
	e.Array(1)
	e.Int(9)
	e.Value(Array(Simple("a"), Int(1)))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-BUSY queue deep\r\n:-3\r\n$2\r\nhi\r\n$2\r\nyo\r\n$5\r\n1.500\r\n*1\r\n:9\r\n*2\r\n+a\r\n:1\r\n"
	if buf.String() != want {
		t.Errorf("stream = %q, want %q", buf.String(), want)
	}

	// Unknown kinds latch the sticky error and later calls stay no-ops.
	e2 := NewEncoder(bufio.NewWriter(&buf))
	e2.Value(Value{Kind: Kind('?')})
	if e2.Err() == nil {
		t.Fatal("encoding an unknown kind must latch an error")
	}
	before := e2.Err()
	e2.Simple("ignored")
	if e2.Err() != before {
		t.Error("sticky error was overwritten")
	}
}

func TestSanitize(t *testing.T) {
	if got := Sanitize("a\r\nb"); got != "a  b" {
		t.Errorf("Sanitize = %q", got)
	}
	long := strings.Repeat("x", 1000)
	if got := Sanitize(long); len(got) != 256 {
		t.Errorf("Sanitize did not clip: %d bytes", len(got))
	}
}

func TestParseIntBounds(t *testing.T) {
	if n, ok := parseInt([]byte("9223372036854775807")); !ok || n != 9223372036854775807 {
		t.Errorf("max int64: %d %v", n, ok)
	}
	if _, ok := parseInt([]byte("9223372036854775808")); ok {
		t.Error("max int64 + 1 must overflow")
	}
	if n, ok := parseInt([]byte("-42")); !ok || n != -42 {
		t.Errorf("-42: %d %v", n, ok)
	}
	for _, bad := range []string{"007", "-0", "00", "+1", ""} {
		if _, ok := parseInt([]byte(bad)); ok {
			t.Errorf("parseInt(%q) accepted a non-canonical form", bad)
		}
	}
}

// TestDecodedPayloadsDoNotAlias holds the one-slab decoder to the
// ownership rule: every payload is cut with its capacity equal to its
// length, so a caller appending to one cannot write into its neighbour,
// and nothing aliases the reader's buffer. It decodes the frame both
// whole (one slab) and one byte per read (the slab is too small, so
// later payloads get their own allocations).
func TestDecodedPayloadsDoNotAlias(t *testing.T) {
	want := Array(BulkString("SUBMIT"), Simple("ok"), BulkString(""),
		BulkString("flat"), Int(5), BulkString("SELECT 1"))
	raw := AppendValue(nil, want)
	raw = AppendValue(raw, Array(Simple("zzzzzzzzzzzz"), BulkString("zzzzzzzzzzzz")))
	for _, src := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(raw)},
		{"one byte per read", iotest.OneByteReader(bytes.NewReader(raw))},
	} {
		t.Run(src.name, func(t *testing.T) {
			br := bufio.NewReaderSize(src.r, 16)
			v, err := ReadValue(br, DefaultLimits())
			if err != nil {
				t.Fatal(err)
			}
			if !v.Equal(want) {
				t.Fatalf("decoded %+v, want %+v", v, want)
			}
			var strs [][]byte
			for _, el := range v.Elems {
				if el.Kind != KindInt {
					strs = append(strs, el.Str)
				}
			}
			for i, s := range strs {
				if cap(s) != len(s) {
					t.Fatalf("payload %d %q has cap %d, want its length", i, s, cap(s))
				}
				_ = append(s, "XXXXXXXXXXXXXXXX"...)
			}
			if _, err := ReadValue(br, DefaultLimits()); err != nil { // refills the reader's buffer
				t.Fatal(err)
			}
			if !v.Equal(want) {
				t.Fatalf("appending to a payload or reading on changed the frame: %+v", v)
			}
		})
	}
}

package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
)

// FuzzProtocolDecode throws corrupt, truncated and oversized byte
// streams at the wire decoder. Invariants:
//
//   - the decoder never panics (the harness catches that for free);
//   - it never over-reads: exactly the decoded frame's bytes are
//     consumed, nothing past it;
//   - errors are classified: io.EOF only on empty input, otherwise
//     io.ErrUnexpectedEOF (truncated) or *WireError (malformed);
//   - an accepted frame holds at most MaxArray × MaxDepth array elements
//     and at most MaxBulk payload bytes, all its arrays together;
//   - valid inputs round-trip byte-for-byte through Encode(Decode(x)).
func FuzzProtocolDecode(f *testing.F) {
	seeds := []string{
		"+PONG\r\n",
		"-BUSY queue depth 64 exceeds limit\r\n",
		":42\r\n",
		":-7\r\n",
		"$5\r\nhello\r\n",
		"$0\r\n\r\n",
		"*0\r\n",
		"*2\r\n$6\r\nSUBMIT\r\n$21\r\nSELECT COUNT(*) FROM l\r\n",
		"*2\r\n*1\r\n+ok\r\n$1\r\nx\r\n",
		"*1\r\n*1\r\n*1\r\n*1\r\n:1\r\n",
		"?junk\r\n",
		":12a\r\n",
		":007\r\n",
		"$-1\r\n",
		"$3\r\nab",
		"*3\r\n:1\r\n",
		"$99999999999999999999\r\n",
		"+no terminator",
		// Around the 64 × 6 = 384 element budget of lim below: 385 and
		// 455 elements (refused), exactly 384 (accepted).
		nestedSeed(6, 63, 63, 63, 63, 63, 64),
		nestedSeed(7, 64, 64, 64, 64, 64, 64, 64),
		nestedSeed(6, 63, 63, 63, 63, 63, 63),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{MaxLine: 256, MaxBulk: 4096, MaxArray: 64, MaxDepth: 6}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), lim.MaxLine+2)
		v, err := ReadValue(br, lim)
		rest, rerr := io.ReadAll(br)
		if rerr != nil {
			t.Fatalf("draining reader: %v", rerr)
		}
		consumed := len(data) - len(rest)

		if err != nil {
			var we *WireError
			switch {
			case errors.As(err, &we):
				// Malformed frame: typed error, fine.
			case errors.Is(err, io.ErrUnexpectedEOF):
				// Truncated frame: fine.
			case errors.Is(err, io.EOF):
				if len(data) != 0 {
					t.Fatalf("io.EOF on non-empty input %q", data)
				}
			default:
				t.Fatalf("unclassified decode error %v on %q", err, data)
			}
			return
		}

		if elems, payload := frameSize(v); elems > lim.MaxArray*lim.MaxDepth || payload > lim.MaxBulk {
			t.Fatalf("accepted a frame of %d array elements and %d payload bytes", elems, payload)
		}

		// Valid frame: re-encoding must reproduce exactly the consumed
		// prefix — byte-identical, no over- or under-read.
		enc := AppendValue(nil, v)
		if !bytes.Equal(enc, data[:consumed]) {
			t.Fatalf("round-trip mismatch:\n consumed %q\n re-encoded %q", data[:consumed], enc)
		}

		// The streaming encoder must agree with the slice encoder.
		var out bytes.Buffer
		e := NewEncoder(bufio.NewWriter(&out))
		e.Value(v)
		if ferr := e.Flush(); ferr != nil {
			t.Fatalf("Encoder.Value(%+v): %v", v, ferr)
		}
		if !bytes.Equal(out.Bytes(), enc) {
			t.Fatalf("Encoder.Value %q disagrees with AppendValue %q", out.Bytes(), enc)
		}

		// And the re-encoded bytes must decode back to an equal value.
		v2, err2 := ReadValue(bufio.NewReaderSize(bytes.NewReader(enc), lim.MaxLine+2), lim)
		if err2 != nil {
			t.Fatalf("re-decoding canonical bytes %q: %v", enc, err2)
		}
		if !v2.Equal(v) {
			t.Fatalf("re-decoded value %+v != original %+v", v2, v)
		}
	})
}

// nestedSeed is an array of len(inner) arrays of inner[i] empty arrays;
// outer is its header, written as given.
func nestedSeed(outer int, inner ...int) string {
	s := "*" + strconv.Itoa(outer) + "\r\n"
	for _, n := range inner {
		s += "*" + strconv.Itoa(n) + "\r\n" + strings.Repeat("*0\r\n", n)
	}
	return s
}

// frameSize counts the array elements and the payload bytes of v.
func frameSize(v Value) (elems, payload int) {
	payload = len(v.Str)
	for _, el := range v.Elems {
		e, p := frameSize(el)
		elems, payload = elems+1+e, payload+p
	}
	return elems, payload
}

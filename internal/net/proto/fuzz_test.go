package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"slices"
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
//   - an accepted frame holds no array inside an array, at most MaxArray
//     elements and at most MaxBulk payload bytes;
//   - valid inputs round-trip byte-for-byte through Encode(Decode(x));
//   - one Decoder shared by every input, reading each between two
//     copies of another frame, returns what ReadValue returns (the same
//     value, or the same error) and then that other frame intact, so no
//     byte of one frame shows through in the next.
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
		"*2\r\n*1\r\n+ok\r\n$1\r\nx\r\n", // refused: an array inside an array
		"*1\r\n*1\r\n*1\r\n*1\r\n:1\r\n",
		"?junk\r\n",
		":12a\r\n",
		":007\r\n",
		"$-1\r\n",
		"$3\r\nab",
		"*3\r\n:1\r\n",
		"$99999999999999999999\r\n",
		"+no terminator",
		// Around lim's 64-element MaxArray: exactly 64 (accepted), 65
		// (refused), and an array as the last element (refused).
		"*64\r\n" + strings.Repeat(":1\r\n", 64),
		"*65\r\n" + strings.Repeat(":1\r\n", 65),
		"*2\r\n:1\r\n*0\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{MaxLine: 256, MaxBulk: 4096, MaxArray: 64}
	other := Array(BulkString("id"), BulkString("q000042"), Simple("ok"), Int(-3), BulkString("wrd"))
	otherRaw := AppendValue(nil, other)
	var shared bytes.Reader
	sharedBR := bufio.NewReaderSize(&shared, lim.MaxLine+2)
	dec := NewDecoder(sharedBR, lim)
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), lim.MaxLine+2)
		v, err := ReadValue(br, lim)
		rest, rerr := io.ReadAll(br)
		if rerr != nil {
			t.Fatalf("draining reader: %v", rerr)
		}
		consumed := len(data) - len(rest)

		// The shared decoder reads the other frame, this input, and (when
		// the input holds a frame) the other frame again.
		stream := append(slices.Clone(otherRaw), data...)
		if err == nil {
			stream = append(append(slices.Clone(otherRaw), data[:consumed]...), otherRaw...)
		}
		shared.Reset(stream)
		sharedBR.Reset(&shared)
		if o, oerr := dec.Read(); oerr != nil || !o.Equal(other) {
			t.Fatalf("shared decoder, frame before %q: %+v, %v", data, o, oerr)
		}
		sv, serr := dec.Read()
		if (serr == nil) != (err == nil) || err != nil && serr.Error() != err.Error() {
			t.Fatalf("shared decoder on %q: error %v, ReadValue's %v", data, serr, err)
		}
		if err == nil {
			if !sv.Equal(v) {
				t.Fatalf("shared decoder on %q: %+v, ReadValue's %+v", data, sv, v)
			}
			if o, oerr := dec.Read(); oerr != nil || !o.Equal(other) {
				t.Fatalf("shared decoder, frame after %q: %+v, %v", data, o, oerr)
			}
		}

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

		payload := len(v.Str)
		for _, el := range v.Elems {
			if el.Kind == KindArray {
				t.Fatalf("accepted an array inside an array: %q", data[:consumed])
			}
			payload += len(el.Str)
		}
		if len(v.Elems) > lim.MaxArray || payload > lim.MaxBulk {
			t.Fatalf("accepted a frame of %d elements and %d payload bytes", len(v.Elems), payload)
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

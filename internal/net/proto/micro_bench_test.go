package proto

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// BenchmarkMicroDecode times decoding the two frames a served query
// puts on the wire most, a SUBMIT request and a WAIT reply, each
// arriving whole in the reader's buffer: by ReadValue into fresh
// storage, as a one-off caller does, and by a warm Decoder, as a
// connection does.
func BenchmarkMicroDecode(b *testing.B) {
	lim := DefaultLimits()
	for _, f := range wireFrames {
		var rd bytes.Reader
		br := bufio.NewReaderSize(&rd, lim.MaxLine+2)
		d := NewDecoder(br, lim)
		for _, side := range []struct {
			name string
			read func() (Value, error)
		}{
			{"ReadValue", func() (Value, error) { return ReadValue(br, lim) }},
			{"Decoder", d.Read},
		} {
			b.Run(f.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rd.Reset(f.raw)
					br.Reset(&rd)
					v, err := side.read()
					if err != nil {
						b.Fatal(err)
					}
					hotSinkInt = int64(len(v.Elems))
				}
			})
		}
	}
}

// BenchmarkMicroEncode times encoding the same two frames through an
// Encoder, as the client writes a SUBMIT and the server a WAIT reply,
// flushing each frame to a discarding writer.
func BenchmarkMicroEncode(b *testing.B) {
	lim := DefaultLimits()
	for _, f := range wireFrames {
		v, err := ReadValue(bufio.NewReader(bytes.NewReader(f.raw)), lim)
		if err != nil {
			b.Fatal(err)
		}
		e := NewEncoder(bufio.NewWriter(io.Discard))
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Value(v)
				if err := e.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Package proto is the wire codec of the network query frontend: a
// RESP-style frame format (simple strings, errors, integers,
// length-prefixed bulk strings, and arrays, all CRLF-terminated) with
// an allocation-conscious encoder and a strictly bounded decoder.
//
// The package is deliberately pure — no sockets, no clocks, no
// goroutines — so the codec is unit-testable and fuzzable in isolation
// from the connection loop in saqp/internal/net. Frames are flat: an
// array holds simple strings, errors, integers and bulks, never another
// array, because no message of the protocol nests. Decoding enforces
// explicit limits (line length, bulk payload size, array length) and
// refuses a nested array, failing with a typed *WireError that the server
// maps to a `-ERR proto:` reply; a decoder error never panics and
// never reads past the end of the offending frame. Valid frames
// round-trip exactly: re-encoding a decoded Value reproduces the
// canonical bytes, a property the fuzz suite enforces.
//
// A Decoder decodes frame after frame into one element slice and one
// payload slab that it keeps, so a warm connection decodes without
// allocating and a returned Value is valid until the next Read; storage
// past a 16 KiB retention bound is dropped after its frame. ReadValue is
// a Decoder run once with fresh storage, so its Value owns its bytes. A
// slab is sized from the reader's buffered bytes as a hint, never by
// reading ahead; each payload is cut with capacity equal to its length.
// MaxBulk bounds the payloads together as well as each bulk, so one frame
// holds about MaxBulk bytes however many elements it has. An array header
// inside an array is refused at its marker, so one frame's elements are
// at most MaxArray 64-byte Values.
//
// Encoding goes through an Encoder with a sticky error and fixed
// scratch buffers, so the per-command reply path performs no heap
// allocations; neither does a warm Decoder.Read (the //saqp:hotpath
// contract, guarded by TestHotPathAllocs).
package proto

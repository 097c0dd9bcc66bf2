// Package proto is the wire codec of the network query frontend: a
// RESP-style frame format (simple strings, errors, integers,
// length-prefixed bulk strings, and arrays, all CRLF-terminated) with
// an allocation-conscious encoder and a strictly bounded decoder.
//
// The package is deliberately pure — no sockets, no clocks, no
// goroutines — so the codec is unit-testable and fuzzable in isolation
// from the connection loop in saqp/internal/net. Decoding enforces
// explicit limits (line length, bulk payload size, array length and
// nesting depth) and fails with a typed *WireError that the server
// maps to a `-ERR proto:` reply; a decoder error never panics and
// never reads past the end of the offending frame. Valid frames
// round-trip exactly: re-encoding a decoded Value reproduces the
// canonical bytes, a property the fuzz suite enforces.
//
// ReadValue copies the payloads of one top-level frame into one slab,
// sized from the reader's buffered bytes as a hint, never by reading
// ahead; each payload is cut with capacity equal to its length. MaxBulk
// bounds the payloads together as well as each bulk, so one frame holds
// about MaxBulk bytes however many elements it has; MaxArray × MaxDepth
// bounds the array elements of one frame together, charged at each array
// header before its element slice is made, so a frame of nested empty
// arrays cannot allocate more than that many 64-byte Values.
//
// Encoding goes through an Encoder with a sticky error and fixed
// scratch buffers, so the per-command reply path performs no heap
// allocations (the //saqp:hotpath contract, guarded by
// TestHotPathAllocs).
package proto

package proto

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

var hotSinkInt int64

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for the wire codec: encoding reply frames, parsing integer headers and
// a connection's Decoder.Read run once per command on every connection,
// so none may allocate in steady state. AllocsPerRun's warm-up call
// grows the decoder's storage; the counted reads reuse it.
func TestHotPathAllocs(t *testing.T) {
	e := NewEncoder(bufio.NewWriterSize(io.Discard, 1<<16))
	payload := []byte("SELECT COUNT(*) FROM lineitem")
	digits := []byte("922337203685477")
	reply := Array(Simple("OK"), Int(42), Bulk(payload))
	lim := DefaultLimits()
	var rd bytes.Reader
	br := bufio.NewReaderSize(&rd, lim.MaxLine+2)
	d := NewDecoder(br, lim)
	read := func(raw []byte) func() {
		return func() {
			rd.Reset(raw)
			br.Reset(&rd)
			v, err := d.Read()
			if err != nil {
				t.Fatal(err)
			}
			hotSinkInt = int64(len(v.Elems))
		}
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"Simple", func() { e.Simple("OK") }},
		{"Error", func() { e.Error("BUSY", "queue deep") }},
		{"Int", func() { e.Int(123456789) }},
		{"Bulk", func() { e.Bulk(payload) }},
		{"BulkString", func() { e.BulkString("q-0001") }},
		{"BulkFloat", func() { e.BulkFloat(12.3456789, 3) }},
		{"Array", func() { e.Array(3) }},
		{"Value", func() { e.Value(reply) }},
		{"parseInt", func() { hotSinkInt, _ = parseInt(digits) }},
		{"Decoder.Read WAIT reply", read(waitReply)},
		{"Decoder.Read SUBMIT request", read(submitRequest)},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(200, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call; //saqp:hotpath functions must not allocate", c.name, n)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// waitReply and submitRequest are the two frames a served query puts on
// the wire most: a WAIT reply (18 elements, nine of them bulk names and
// four bulk values) and a SUBMIT request.
var (
	waitReply = AppendValue(nil, Array(
		BulkString("id"), BulkString("q000042"),
		BulkString("cache_hit"), Int(1),
		BulkString("wrd"), BulkString("123.456789"),
		BulkString("predicted_sec"), BulkString("45.678901"),
		BulkString("sim_sec"), BulkString("47.000000"),
		BulkString("jobs"), Int(3),
		BulkString("maps"), Int(24),
		BulkString("reduces"), Int(6),
		BulkString("model_version"), Int(2)))
	submitRequest = AppendValue(nil, Array(BulkString("SUBMIT"),
		BulkString("SELECT l_returnflag, count(*) FROM lineitem WHERE l_quantity < 24 GROUP BY l_returnflag"),
		BulkString("7")))
	wireFrames = []struct {
		name string
		raw  []byte
	}{{"WAIT reply", waitReply}, {"SUBMIT request", submitRequest}}
)

// TestDecodeAllocBudget bounds what decoding one whole frame with fresh
// storage allocates: the array's element slice and the one slab every
// payload of the frame is copied into, whatever the number of payloads.
// Each frame arrives whole in the reader's buffer.
func TestDecodeAllocBudget(t *testing.T) {
	lim := DefaultLimits()
	var rd bytes.Reader
	br := bufio.NewReaderSize(&rd, lim.MaxLine+2)
	for _, c := range wireFrames {
		decode := func() {
			rd.Reset(c.raw)
			br.Reset(&rd)
			if _, err := br.Peek(1); err != nil { // the server peeks the kind first
				t.Fatal(err)
			}
			v, err := ReadValue(br, lim)
			if err != nil {
				t.Fatal(err)
			}
			hotSinkInt = int64(len(v.Elems))
		}
		if n := testing.AllocsPerRun(100, decode); n > 2 {
			t.Errorf("decoding a %s allocates %.0f times, budget 2", c.name, n)
		}
	}
}

// TestDecoderDropsOutsizedSlab: a 1 MiB bulk grows a decoder's slab past
// the retention bound; once its frame is read the decoder lets the slab
// go, and after a small frame it holds no more than the bound.
func TestDecoderDropsOutsizedSlab(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, 1<<20)
	raw := AppendValue(nil, Bulk(big))
	raw = append(raw, submitRequest...)
	lim := DefaultLimits()
	d := NewDecoder(bufio.NewReaderSize(bytes.NewReader(raw), lim.MaxLine+2), lim)
	retained := func() int { return cap(d.slab) + cap(d.elems)*valueBytes }
	v, err := d.Read()
	if err != nil || !bytes.Equal(v.Str, big) {
		t.Fatalf("1 MiB bulk: %d bytes, %v", len(v.Str), err)
	}
	if n := retained(); n > retainBytes {
		t.Fatalf("after the 1 MiB frame the decoder retains %d bytes, bound %d", n, retainBytes)
	}
	if v, err = d.Read(); err != nil || len(v.Elems) != 3 {
		t.Fatalf("SUBMIT after the 1 MiB frame: %+v, %v", v, err)
	}
	if n := retained(); n == 0 || n > retainBytes {
		t.Fatalf("after a small frame the decoder retains %d bytes, want 1 to %d", n, retainBytes)
	}
}

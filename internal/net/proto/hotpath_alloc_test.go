package proto

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

var hotSinkInt int64

// TestHotPathAllocs is the runtime half of the //saqp:hotpath contract
// for the wire codec: encoding reply frames and parsing integer
// headers run once per command on every connection, so neither may
// allocate in steady state.
func TestHotPathAllocs(t *testing.T) {
	e := NewEncoder(bufio.NewWriterSize(io.Discard, 1<<16))
	payload := []byte("SELECT COUNT(*) FROM lineitem")
	digits := []byte("922337203685477")
	reply := Array(Simple("OK"), Int(42), Bulk(payload))
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

// TestDecodeAllocBudget bounds what decoding one whole frame allocates:
// the array's element slice and the one slab every payload of the frame
// is copied into, whatever the number of payloads. The frames are a
// WAIT reply (18 elements, nine of them bulk names and four bulk values)
// and a SUBMIT request, each arriving whole in the reader's buffer.
func TestDecodeAllocBudget(t *testing.T) {
	wait := AppendValue(nil, Array(
		BulkString("id"), BulkString("q-000042"),
		BulkString("cache_hit"), Int(1),
		BulkString("wrd"), BulkString("123.456789"),
		BulkString("predicted_sec"), BulkString("45.678901"),
		BulkString("sim_sec"), BulkString("47.000000"),
		BulkString("jobs"), Int(3),
		BulkString("maps"), Int(24),
		BulkString("reduces"), Int(6),
		BulkString("model_version"), Int(2)))
	submit := AppendValue(nil, Array(BulkString("SUBMIT"),
		BulkString("SELECT l_returnflag, count(*) FROM lineitem WHERE l_quantity < 24 GROUP BY l_returnflag"),
		BulkString("7")))
	lim := DefaultLimits()
	var rd bytes.Reader
	br := bufio.NewReaderSize(&rd, lim.MaxLine+2)
	for _, c := range []struct {
		name string
		raw  []byte
	}{{"WAIT reply", wait}, {"SUBMIT request", submit}} {
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

package net

import (
	"bufio"
	"bytes"
	"context"
	stdnet "net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"saqp/internal/net/proto"
)

// TestClientWaitRejectsNonIntegerFields answers WAIT from a hand-rolled
// listener with one integer or 0/1 field sent as a bulk string: Wait
// must refuse the reply, as Stats refuses a non-integer value, instead of
// decoding the field as 0.
func TestClientWaitRejectsNonIntegerFields(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fields := []string{"cache_hit", "jobs", "maps", "reduces", "model_version"}
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		br, enc := bufio.NewReader(conn), proto.NewEncoder(bufio.NewWriter(conn))
		for _, bulk := range fields {
			if _, err := proto.ReadValue(br, proto.DefaultLimits()); err != nil {
				served <- err
				return
			}
			enc.Array(2 * len(fields))
			for _, f := range fields {
				enc.BulkString(f)
				if f == bulk {
					enc.BulkString("3")
				} else {
					enc.Int(1)
				}
			}
			if err := enc.Flush(); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	c := dialT(t, ln.Addr().String())
	for _, bulk := range fields {
		res, err := c.Wait("q000001")
		if err == nil || !strings.Contains(err.Error(), bulk) {
			t.Errorf("Wait with a bulk %s = %+v, %v; want an error naming the field", bulk, res, err)
		}
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestProtocolDocAgrees holds docs/PROTOCOL.md's WAIT and STATS field
// lists to the names writeResult and writeStats put on the wire, in
// order.
func TestProtocolDocAgrees(t *testing.T) {
	data, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	ticked := regexp.MustCompile("`([a-z_]+)`")
	// documented returns the backticked names of the paragraph that
	// follows lead inside the section between from and to.
	documented := func(from, lead, to string) []string {
		i, j := strings.Index(doc, from), strings.Index(doc, to)
		if i < 0 || j < i || !strings.Contains(doc[i:j], lead) {
			t.Fatalf("docs/PROTOCOL.md lost its %s field list", from)
		}
		list := strings.TrimLeft(doc[i:j][strings.Index(doc[i:j], lead)+len(lead):], " \n")
		list, _, _ = strings.Cut(list, "\n\n")
		var names []string
		for _, m := range ticked.FindAllStringSubmatch(list, -1) {
			names = append(names, m[1])
		}
		return names
	}
	// emitted returns the names of one name/value reply, in order.
	emitted := func(write func(*proto.Encoder)) []string {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		enc := proto.NewEncoder(w)
		write(enc)
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		v, err := proto.ReadValue(bufio.NewReader(&buf), proto.DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for i := 0; i < len(v.Elems); i += 2 {
			names = append(names, string(v.Elems[i].Str))
		}
		return names
	}
	b := &fakeBackend{}
	p, err := b.Submit(context.Background(), "SELECT 1", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wait := emitted(func(enc *proto.Encoder) { writeResult(enc, res) })
	stats := emitted(func(enc *proto.Encoder) { writeStats(enc, b.Stats()) })
	if doc := documented("**WAIT**", "field order:", "**STATS**"); !reflect.DeepEqual(doc, wait) {
		t.Errorf("docs/PROTOCOL.md lists WAIT fields\n%v\nthe server sends\n%v", doc, wait)
	}
	if doc := documented("**STATS**", "in fixed order:", "**EXPLAIN**"); !reflect.DeepEqual(doc, stats) {
		t.Errorf("docs/PROTOCOL.md lists STATS fields\n%v\nthe server sends\n%v", doc, stats)
	}
}

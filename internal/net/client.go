package net

import (
	"bufio"
	"bytes"
	"errors"
	stdnet "net"
	"strconv"
	"sync"

	"saqp/internal/net/proto"
	"saqp/internal/serve"
)

// ServerError is an error frame from the server, split into its typed
// code ("ERR", "BUSY", ...) and human-readable message.
type ServerError struct {
	// Code is the error's first word, the machine-readable class.
	Code string
	// Msg is the rest of the error line.
	Msg string
}

// Error implements the error interface.
func (e *ServerError) Error() string { return "server error " + e.Code + ": " + e.Msg }

// IsBusy reports whether err is the server's typed -BUSY backpressure
// refusal (connection limit, pending-ticket limit, or a full admission
// queue).
func IsBusy(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == "BUSY"
}

// Client is a blocking, connection-per-client wire client. Methods are
// safe for one goroutine at a time; a Client serializes one
// request/reply exchange per call. Close is the exception: any goroutine
// may call it, and it unblocks a pending call. After a transport error or
// a reply that does not decode, the stream's framing is lost, so every
// later call returns that same error.
type Client struct {
	mu   sync.Mutex
	c    stdnet.Conn
	dec  *proto.Decoder
	enc  *proto.Encoder
	err  error    // sticky: the first transport or decode error
	seed [20]byte // SUBMIT's seed digits
}

// Dial connects to a frontend server at addr.
func Dial(addr string) (*Client, error) {
	c, err := stdnet.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	lim := proto.DefaultLimits()
	return &Client{
		c:   c,
		dec: proto.NewDecoder(bufio.NewReaderSize(c, lim.MaxLine+2), lim),
		enc: proto.NewEncoder(bufio.NewWriter(c)),
	}, nil
}

// Close tears the connection down. It takes no lock, so a call blocked
// in another goroutine — a Wait on a ticket that never completes, say —
// returns with the connection's error instead of holding Close.
func (c *Client) Close() error { return c.c.Close() }

// roundTrip sends one request array of args and decodes its reply; the
// caller holds c.mu.
func (c *Client) roundTrip(args ...string) (proto.Value, error) {
	c.enc.Array(len(args))
	for _, a := range args {
		c.enc.BulkString(a)
	}
	return c.reply()
}

// reply flushes the request the encoder holds and decodes one reply
// frame, mapping an error frame to *ServerError. The Value is valid until
// the next exchange; the caller holds c.mu.
func (c *Client) reply() (proto.Value, error) {
	if c.err != nil {
		return proto.Value{}, c.err
	}
	if c.err = c.enc.Flush(); c.err != nil {
		return proto.Value{}, c.err
	}
	v, err := c.dec.Read()
	if err != nil {
		c.err = err
		return proto.Value{}, err
	}
	if v.Kind == proto.KindError {
		code, msg, _ := bytes.Cut(v.Str, []byte{' '})
		return proto.Value{}, &ServerError{Code: string(code), Msg: string(msg)}
	}
	return v, nil
}

// Ping round-trips a PING.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, err := c.roundTrip("PING")
	if err != nil {
		return err
	}
	if v.Kind != proto.KindSimple || string(v.Str) != "PONG" {
		return errors.New("net: unexpected PING reply")
	}
	return nil
}

// Submit admits one query with the given ground-truth seed and returns
// its ticket id for a later Wait.
func (c *Client) Submit(sql string, seed uint64) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Array(3)
	c.enc.BulkString("SUBMIT")
	c.enc.BulkString(sql)
	c.enc.Bulk(strconv.AppendUint(c.seed[:0], seed, 10))
	v, err := c.reply()
	if err != nil {
		return "", err
	}
	if v.Kind != proto.KindSimple {
		return "", errors.New("net: unexpected SUBMIT reply kind")
	}
	return string(v.Str), nil
}

// Wait blocks until the identified submission completes and returns
// its result decoded from the wire (Result.SQL stays empty — the
// server does not echo query text). Result.ID is id itself when the
// reply echoes it.
func (c *Client) Wait(id string) (serve.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, err := c.roundTrip("WAIT", id)
	if err != nil {
		return serve.Result{}, err
	}
	return parseResult(v, id)
}

// Stats snapshots the server's engine counters as a name → value map.
func (c *Client) Stats() (map[string]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, err := c.roundTrip("STATS")
	if err != nil {
		return nil, err
	}
	pairs, err := pairFields(v)
	if err != nil {
		return nil, err
	}
	m := make(map[string]int64, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i+1].Kind != proto.KindInt {
			return nil, errors.New("net: STATS value is not an integer")
		}
		m[string(pairs[i].Str)] = pairs[i+1].Int
	}
	return m, nil
}

// Explain returns the server's compiled plan description of one query.
func (c *Client) Explain(sql string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, err := c.roundTrip("EXPLAIN", sql)
	if err != nil {
		return nil, err
	}
	return bulkLines(v)
}

// Metrics returns the server's metrics dump, one line per entry.
func (c *Client) Metrics() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, err := c.roundTrip("METRICS")
	if err != nil {
		return nil, err
	}
	return bulkLines(v)
}

// Quit asks the server to close the connection after acknowledging.
func (c *Client) Quit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.roundTrip("QUIT")
	return err
}

// pairFields unwraps a flat name/value reply array.
func pairFields(v proto.Value) ([]proto.Value, error) {
	if v.Kind != proto.KindArray || len(v.Elems)%2 != 0 {
		return nil, errors.New("net: reply is not a name/value array")
	}
	return v.Elems, nil
}

// bulkLines unwraps an array-of-bulk-strings reply.
func bulkLines(v proto.Value) ([]string, error) {
	if v.Kind != proto.KindArray {
		return nil, errors.New("net: reply is not an array")
	}
	lines := make([]string, 0, len(v.Elems))
	for _, el := range v.Elems {
		if el.Kind != proto.KindBulk {
			return nil, errors.New("net: reply element is not a bulk string")
		}
		lines = append(lines, string(el.Str))
	}
	return lines, nil
}

// parseResult decodes a WAIT reply for ticket id into the engine's
// Result struct.
func parseResult(v proto.Value, id string) (serve.Result, error) {
	pairs, err := pairFields(v)
	if err != nil {
		return serve.Result{}, err
	}
	var r serve.Result
	for i := 0; i < len(pairs); i += 2 {
		name, val := string(pairs[i].Str), pairs[i+1]
		switch name {
		case "id":
			r.ID = id
			if string(val.Str) != id {
				r.ID = string(val.Str)
			}
		case "cache_hit":
			var hit int
			hit, err = intField(name, val)
			r.CacheHit = hit != 0
		case "wrd":
			r.WRD, err = floatField(name, val)
		case "predicted_sec":
			r.PredictedSec, err = floatField(name, val)
		case "sim_sec":
			r.SimSec, err = floatField(name, val)
		case "jobs":
			r.Jobs, err = intField(name, val)
		case "maps":
			r.Maps, err = intField(name, val)
		case "reduces":
			r.Reduces, err = intField(name, val)
		case "model_version":
			r.ModelVersion, err = intField(name, val)
		}
		if err != nil {
			return serve.Result{}, err
		}
	}
	return r, nil
}

// intField reads one integer reply field (a count or a 0/1 flag).
func intField(name string, v proto.Value) (int, error) {
	if v.Kind != proto.KindInt {
		return 0, errors.New("net: field " + name + " is not an integer")
	}
	return int(v.Int), nil
}

// floatField parses one fixed-precision float reply field.
func floatField(name string, v proto.Value) (float64, error) {
	if v.Kind != proto.KindBulk {
		return 0, errors.New("net: field " + name + " is not a bulk float")
	}
	f, err := strconv.ParseFloat(string(v.Str), 64)
	if err != nil {
		return 0, errors.New("net: field " + name + ": " + err.Error())
	}
	return f, nil
}

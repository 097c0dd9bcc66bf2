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
// may call it, and it unblocks a pending call.
type Client struct {
	mu  sync.Mutex
	c   stdnet.Conn
	br  *bufio.Reader
	enc *proto.Encoder
	lim proto.Limits
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
		br:  bufio.NewReaderSize(c, lim.MaxLine+2),
		enc: proto.NewEncoder(bufio.NewWriter(c)),
		lim: lim,
	}, nil
}

// Close tears the connection down. It takes no lock, so a call blocked
// in another goroutine — a Wait on a ticket that never completes, say —
// returns with the connection's error instead of holding Close.
func (c *Client) Close() error { return c.c.Close() }

// roundTrip sends one request array and decodes one reply frame,
// mapping error frames to *ServerError.
func (c *Client) roundTrip(args ...string) (proto.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Array(len(args))
	for _, a := range args {
		c.enc.BulkString(a)
	}
	if err := c.enc.Flush(); err != nil {
		return proto.Value{}, err
	}
	v, err := proto.ReadValue(c.br, c.lim)
	if err != nil {
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
	v, err := c.roundTrip("SUBMIT", sql, strconv.FormatUint(seed, 10))
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
// server does not echo query text).
func (c *Client) Wait(id string) (serve.Result, error) {
	v, err := c.roundTrip("WAIT", id)
	if err != nil {
		return serve.Result{}, err
	}
	return parseResult(v)
}

// Stats snapshots the server's engine counters as a name → value map.
func (c *Client) Stats() (map[string]int64, error) {
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
	v, err := c.roundTrip("EXPLAIN", sql)
	if err != nil {
		return nil, err
	}
	return bulkLines(v)
}

// Metrics returns the server's metrics dump, one line per entry.
func (c *Client) Metrics() ([]string, error) {
	v, err := c.roundTrip("METRICS")
	if err != nil {
		return nil, err
	}
	return bulkLines(v)
}

// Quit asks the server to close the connection after acknowledging.
func (c *Client) Quit() error {
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

// parseResult decodes a WAIT reply into the engine's Result struct.
func parseResult(v proto.Value) (serve.Result, error) {
	pairs, err := pairFields(v)
	if err != nil {
		return serve.Result{}, err
	}
	var r serve.Result
	for i := 0; i < len(pairs); i += 2 {
		name, val := string(pairs[i].Str), pairs[i+1]
		switch name {
		case "id":
			r.ID = string(val.Str)
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

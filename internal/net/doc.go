// Package net is the network query frontend: a TCP server speaking a
// RESP-style line protocol (see saqp/internal/net/proto for the wire
// codec) layered on the serving engine, plus the matching client.
//
// Commands: SUBMIT <sql> [seed] admits a query and replies with a
// ticket id; WAIT <id> blocks until that submission completes and
// replies with a flat name/value array; STATS snapshots the engine
// counters; EXPLAIN <sql> replies with the compiled plan description;
// METRICS dumps the metrics registry; PING and QUIT do what they say.
// Requests arrive either as arrays of bulk strings or as inline
// CRLF-terminated lines (telnet-friendly). A client may pipeline: the
// server answers the requests one at a time, in request order.
//
// The server enforces a connection limit, per-connection read and
// write deadlines, and admission backpressure: past a connection's
// unwaited-ticket limit, or when the engine refuses with a full admission
// queue, SUBMIT earns a typed -BUSY error instead of queueing.
// Shutdown drains gracefully — the listener closes, idle connections
// are kicked, and in-flight commands (a WAIT blocked on a running
// query, in particular) complete and flush before their connections
// close, so no accepted submission loses its completion.
//
// This package is the wall-clock boundary of the stack, like the root
// facade: deadlines and drains are wall-time concerns, so the package
// deliberately stays outside analysis.DeterministicPackages while the
// pure codec underneath joins it.
package net

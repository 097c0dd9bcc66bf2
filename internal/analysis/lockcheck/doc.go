// Package lockcheck is a heuristic, flow-insensitive checker for
// mutex-guarded struct fields. Within one package it observes which
// struct fields are ever written by a function that locks a sync.Mutex
// or sync.RWMutex field of the same struct ("guarded" fields), then
// flags writes to those fields from functions that never lock that
// mutex. A write to anything inside a field — x.f.g++, x.f[i] = v — is a
// write to the field. This is the invariant the parallel aggregation paths in
// internal/mapreduce and internal/workload rely on: a partial-sum field
// updated outside the lock races under -race and, worse, can merge
// nondeterministically, corrupting the measured IS/FS ground truth.
//
// Heuristics and limits (deliberate, to keep the false-positive rate
// workable): analysis is per package and flow-insensitive — locking
// anywhere in a function counts for the whole function, including its
// closures; writes through a variable declared inside the same function
// body are treated as construction of a not-yet-shared value and are
// not flagged; only named mutex fields and embedded sync.Mutex/RWMutex
// are recognised; a write through a local alias of a field is not seen. Escapes are reviewed with
// //lint:allow saqpvet/lockcheck.
package lockcheck

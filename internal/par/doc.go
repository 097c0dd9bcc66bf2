// Package par is the tree's one worker pool for data-parallel loops whose
// iterations are independent: generating a relation's columns, collecting
// their statistics, running a training corpus's queries, and the batch
// engine's map, combine and join tasks. A loop body
// writes only its own slot of a result the caller sized beforehand, so
// what the loop computes does not depend on how many workers ran it or in
// which order they took the indices.
//
// The workers are helpers that live as long as the process: the first
// parallel For that needs one starts it, and there are never more than
// the largest GOMAXPROCS a parallel For has run at. A call hands its
// whole index range to the idle helpers and waits, so a warm call starts
// no goroutine and allocates nothing of its own. A For called from inside
// another's body, or beside other calls, takes only helpers that are
// idle; when fewer than two are, the caller runs indices beside them, so
// nested calls cannot deadlock and no call queues behind a busy helper.
//
// A loop is a Body, a value with a Run(i int) method: For(n, b) calls
// b.Run(i). A body is a pointer to the loop's context, the one every
// index shares, and Run is a method on it. A task carries the pointer as
// it is, so a long-lived context, such as a field of the scratch a query
// keeps, makes a call allocate nothing, where a context on the caller's
// stack escapes to the heap on every call.
package par

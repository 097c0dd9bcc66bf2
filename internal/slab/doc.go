// Package slab is the one storage algorithm behind request-scoped
// scratch: the batch engine's shuffle and combine buffers, the estimator
// walk's stages and edge columns, and a histogram arena's headers and
// buckets are each a Slab. The training corpus's feature vectors are not
// scratch: each workload.QueryRun cuts its own from one allocation.
//
// A request cuts what it needs, and no cut ever moves. When the request
// is over, its owner asks what the slab would keep (Bytes) and either
// resets it — zeroed, and sized so the next request of that size cuts
// from one buffer — or drops it, so one outsized request does not pin its
// storage for the owner's life. The drop rule is the owner's: RetainBytes
// is the bound the long-lived owners share.
//
// Two reusable buffers are deliberately not Slabs. The wire decoder
// (internal/net/proto) grows by the frame budget and the reader's
// buffered bytes, which a Slab cannot see. The simulator's query layout
// (cluster.Query.Rebuild, cluster.Sim.Reset) is overwritten in place on
// every served hit, where zeroing it at each reset would be pure cost.
package slab

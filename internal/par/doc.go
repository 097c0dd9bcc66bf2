// Package par is the tree's one worker pool for data-parallel loops whose
// iterations are independent: generating a relation's columns, collecting
// their statistics, running a training corpus's queries, and the batch
// engine's map, combine and join tasks. A loop body
// writes only its own slot of a result the caller sized beforehand, so
// what the loop computes does not depend on how many workers ran it or in
// which order they took the indices.
package par

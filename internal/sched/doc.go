// Package sched implements the three scheduling policies the paper
// evaluates (Section 5.5):
//
//   - HCS, the Hadoop Capacity Scheduler: jobs are hashed by query into
//     capacity queues; slots go to the most under-served queue, FIFO
//     within it. Capacity is elastic (idle slots are lent across queues)
//     but never preempted, so a big query that borrows the cluster starves
//     later-arriving jobs — the thrashing of Figures 1–2.
//   - HFS, the Hadoop Fair Scheduler: slots balanced across all active
//     jobs (fewest running tasks first), slicing resources thinly across
//     concurrent queries.
//   - SWRD, the paper's case-study scheduler: all slots go to the query
//     with the Smallest Weighted Resource Demand (Eq. 10), computed from
//     the semantics-aware predicted task times; a query's jobs form a
//     chain, so each query offers at most one job at a time.
//
// Schedulers only rank jobs; the cluster simulator owns slot pools,
// reduce slowstart and phase eligibility.
package sched

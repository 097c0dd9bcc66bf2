package plan

import (
	"fmt"
	"strings"

	"saqp/internal/query"
)

// JobType is the paper's three-way job categorisation (Section 3.1): the
// major operator of the job determines how selectivities are estimated.
type JobType uint8

const (
	// Extract jobs scan/filter/project/sort one input (orderby, limit and
	// all remaining major operators).
	Extract JobType = iota
	// Groupby jobs aggregate on grouping keys, with map-side combines.
	Groupby
	// Join jobs merge two inputs on equi-join keys.
	Join
)

// String returns the category name.
func (t JobType) String() string {
	switch t {
	case Extract:
		return "Extract"
	case Groupby:
		return "Groupby"
	case Join:
		return "Join"
	}
	return fmt.Sprintf("JobType(%d)", uint8(t))
}

// TableScan is a base-table input of a job: which table is read, the local
// predicates pushed down to its scan, and the columns actually needed
// (projection pruning) — the inputs of S_pred and S_proj.
type TableScan struct {
	Table string
	// Preds are the conjunctive local filters applied during the scan.
	Preds []query.Predicate
	// Columns are the attribute names required downstream.
	Columns []string
}

// Job is one MapReduce job in a query plan.
type Job struct {
	// ID is unique within the DAG ("J1", "J2", ...).
	ID string
	// Type is the major-operator category.
	Type JobType
	// Scans lists base tables read by this job's map phase (0, 1 or 2).
	Scans []TableScan
	// Up is the job whose output this job reads: nil for the first job of
	// the DAG, the job just before it otherwise.
	Up *Job
	// JoinLeft and JoinRight are the equi-join key columns for Join jobs.
	JoinLeft, JoinRight query.ColumnRef
	// GroupKeys are the grouping columns for Groupby jobs.
	GroupKeys []query.ColumnRef
	// Aggs are the aggregate output items for Groupby jobs.
	Aggs []query.SelectItem
	// Having are post-aggregation filters applied in the reduce phase of
	// Groupby jobs.
	Having []query.HavingPred
	// OrderKeys are the sort columns for sorting Extract jobs.
	OrderKeys []query.OrderItem
	// Limit is the row limit for Extract jobs (-1 if absent).
	Limit int64
	// MapOnly marks jobs with no reduce phase (pure filter/project, or a
	// broadcast map-side join).
	MapOnly bool
	// Broadcast names the small table loaded into every map task of a
	// map-side join ("" otherwise) — the Hive MAPJOIN the paper lists
	// among its minor operators.
	Broadcast string
	// MapJoins lists broadcast joins folded into this job's map phase:
	// Hive merges a map-only join into its consumer job, which is how the
	// paper's Q14 ("QA") runs as two jobs (AGG, Sort) rather than three.
	// They apply in order, before the job's own operator.
	MapJoins []MapJoinSpec
}

// MapJoinSpec is one broadcast join executed inside a job's map phase.
type MapJoinSpec struct {
	// BroadcastScan reads the small table (with its pushed-down filters).
	BroadcastScan TableScan
	// JoinLeft and JoinRight are the equi-join key columns; one side lives
	// in the broadcast table, the other in the job's main input.
	JoinLeft, JoinRight query.ColumnRef
}

// Label renders a short human-readable description ("J2:Join(lineitem)").
func (j *Job) Label() string {
	var parts []string
	for _, s := range j.Scans {
		parts = append(parts, s.Table)
	}
	if j.Up != nil {
		parts = append(parts, j.Up.ID)
	}
	return fmt.Sprintf("%s:%s(%s)", j.ID, j.Type, strings.Join(parts, ","))
}

// DAG is the compiled execution plan of one query.
type DAG struct {
	// Jobs are in submission order and form a left-deep chain: each job
	// after the first reads the output of the job just before it.
	Jobs []*Job
	// Query is the resolved source query.
	Query *query.Query
}

// Sink returns the terminal job (the last job of the DAG).
func (d *DAG) Sink() *Job {
	if len(d.Jobs) == 0 {
		return nil
	}
	return d.Jobs[len(d.Jobs)-1]
}

// Validate checks structural invariants: non-empty unique IDs, and a chain
// in which every job after the first reads the job before it. A plan has a
// few jobs, so ids are compared by a scan rather than through a map.
func (d *DAG) Validate() error {
	var prev *Job
	for i, j := range d.Jobs {
		if j.ID == "" {
			return fmt.Errorf("plan: job %d has empty ID", i)
		}
		for _, k := range d.Jobs[:i] {
			if k.ID == j.ID {
				return fmt.Errorf("plan: duplicate job ID %q", j.ID)
			}
		}
		if j.Up != prev {
			return fmt.Errorf("plan: job %s does not read the job before it", j.ID)
		}
		prev = j
	}
	return nil
}

// String renders the DAG one job per line.
func (d *DAG) String() string {
	var b strings.Builder
	for _, j := range d.Jobs {
		b.WriteString(j.Label())
		b.WriteByte('\n')
	}
	return b.String()
}

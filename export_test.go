package hierdb

import "hierdb/internal/exec"

// PlanRoot is the plan a Run of q would execute under its DB's optimizer
// mode, for the external tests that pin the planner's choices.
func PlanRoot(q *Query) exec.Node { return exec.Optimize(q.node, q.db.mode, q.db.statsFor).Root }

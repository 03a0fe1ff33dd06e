package dist

import "navaug/internal/graph"

// DebtNodes returns the oracle's debt set, ascending: the nodes whose
// answers may be stale.
func DebtNodes(t *DynTwoHop) []graph.NodeID { return t.state.Load().debt }

package badco

// Checkpoint support: a Machine's State is its replay cursor (node index
// and iteration), the per-node time vectors and the clocks. The model and
// the memory binding are identity, owned by whoever rebuilds the machine.
// Snapshot into a warmed buffer and Restore are allocation-free.

// State is a reusable deep snapshot of a Machine.
type State struct {
	Next     int
	Iter     uint64
	IssueT   []uint64
	CompT    []uint64
	PrevEnd  uint64
	Clock    uint64
	ReqCount uint64
}

// Snapshot deep-copies the machine's mutable state into the buffer.
func (ma *Machine) Snapshot(into *State) {
	into.Next = ma.next
	into.Iter = ma.iter
	into.IssueT = append(into.IssueT[:0], ma.issueT...)
	into.CompT = append(into.CompT[:0], ma.compT...)
	into.PrevEnd = ma.prevEnd
	into.Clock = ma.clock
	into.ReqCount = ma.reqCount
}

// Restore overwrites the machine's mutable state from the buffer. The
// target must replay the same model as the snapshot's source.
func (ma *Machine) Restore(from *State) {
	ma.next = from.Next
	ma.iter = from.Iter
	copy(ma.issueT, from.IssueT)
	copy(ma.compT, from.CompT)
	ma.prevEnd = from.PrevEnd
	ma.clock = from.Clock
	ma.reqCount = from.ReqCount
}

package mem

// Checkpoint support: the bus's path-booking cursors and both devices'
// statistics are the only mutable state; the cycle costs are derived from
// the config at construction and stay identity.

// BusState is a reusable snapshot of a Bus.
type BusState struct {
	CmdFreeAt  uint64
	DataFreeAt uint64
	Busy       uint64
	Transfers  uint64
}

// Snapshot copies the bus's mutable state into the buffer.
func (b *Bus) Snapshot(into *BusState) {
	into.CmdFreeAt = b.cmdFreeAt
	into.DataFreeAt = b.dataFreeAt
	into.Busy = b.busy
	into.Transfers = b.transfers
}

// Restore overwrites the bus's mutable state from the buffer.
func (b *Bus) Restore(from *BusState) {
	b.cmdFreeAt = from.CmdFreeAt
	b.dataFreeAt = from.DataFreeAt
	b.busy = from.Busy
	b.transfers = from.Transfers
}

// DRAMState is a reusable snapshot of a DRAM.
type DRAMState struct {
	Requests uint64
}

// Snapshot copies the DRAM's mutable state into the buffer.
func (d *DRAM) Snapshot(into *DRAMState) { into.Requests = d.requests }

// Restore overwrites the DRAM's mutable state from the buffer.
func (d *DRAM) Restore(from *DRAMState) { d.requests = from.Requests }

package service

// entry is one key's slot in the shard state machine: its value, whether a
// write has ever materialized it (a get on a missing key must keep
// reporting OK=false), and the number of commands ever applied to it —
// the version, identical on every replica, that the online auditor keys
// its gap-free windows on.
type entry struct {
	val    string
	exists bool
	ver    uint64
}

// dedupEntry is the remembered outcome of an identified op, replayed to
// retries of the same op ID instead of re-applying them.
type dedupEntry struct {
	res Result
	ver uint64
}

// DefaultMaxDedup is the op-ID dedup bound of NewMachine(0) and of
// Config.MaxDedup's default.
const DefaultMaxDedup = 4096

// Machine is one shard's deterministic state machine: get/put/cas over
// versioned per-key registers, plus the dedup table for client-assigned op
// IDs. Its output depends only on the sequence of ops applied, so replicas
// applying the same log agree on every result — including which retry was
// a duplicate, which is what makes a same-ID resubmission exactly-once.
//
// The single-node Store drives one Machine per replica through the
// universal construction, cluster store nodes apply their replicated log
// to one per shard, and the cluster checker replays canonical chains
// through one. A Machine is not safe for concurrent use.
type Machine struct {
	keys  map[string]entry
	dedup map[uint64]dedupEntry
	order []uint64 // FIFO eviction queue bounding dedup at max IDs
	max   int
}

// NewMachine returns an empty machine remembering up to maxDedup op IDs
// (DefaultMaxDedup when maxDedup ≤ 0); the oldest ID is forgotten first.
func NewMachine(maxDedup int) *Machine {
	if maxDedup <= 0 {
		maxDedup = DefaultMaxDedup
	}
	return &Machine{keys: map[string]entry{}, dedup: map[uint64]dedupEntry{}, max: maxDedup}
}

// Apply applies one op and returns its result and the key's version after
// it. A retry — an identified op (op.ID != 0) whose ID is still remembered
// — leaves the state untouched and returns the remembered result and
// version with dup set.
func (m *Machine) Apply(op Op) (res Result, ver uint64, dup bool) {
	if op.ID != 0 {
		if c, hit := m.dedup[op.ID]; hit {
			return c.res, c.ver, true
		}
	}
	res, ver = m.step(op, true)
	m.remember(op.ID, res, ver)
	return res, ver, false
}

// step applies op to its key without consulting the dedup table. With
// write false a put is answered and versioned but its value is not stored
// (the lost-update canary's injected bug; see Store.debugDropPuts).
func (m *Machine) step(op Op, write bool) (Result, uint64) {
	e := m.keys[op.Key]
	e.ver++
	var res Result
	switch op.Kind {
	case OpGet:
		res = Result{Val: e.val, OK: e.exists}
	case OpPut:
		res = Result{Val: op.Val, OK: true}
		if write {
			e.val, e.exists = op.Val, true
		}
	case OpCAS:
		if e.val == op.Old {
			e.val, e.exists = op.Val, true
			res = Result{Val: op.Val, OK: true}
		} else {
			res = Result{Val: e.val, OK: false}
		}
	}
	m.keys[op.Key] = e
	return res, e.ver
}

// remember records an identified op's outcome, evicting the oldest
// remembered ID past the bound.
func (m *Machine) remember(id uint64, res Result, ver uint64) {
	if id == 0 {
		return
	}
	m.dedup[id] = dedupEntry{res: res, ver: ver}
	m.order = append(m.order, id)
	if len(m.order) > m.max {
		delete(m.dedup, m.order[0])
		m.order = m.order[1:]
		if cap(m.order) > 4*m.max {
			m.order = append([]uint64(nil), m.order...)
		}
	}
}

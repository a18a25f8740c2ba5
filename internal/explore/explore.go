// Package explore is an explicit-state model checker implementing the proof
// machinery of Section 3.3 of the paper: runs, extensions, valence,
// compatibility, deciders, and critical configurations.
//
// A Protocol is a deterministic explicit-state model of an algorithm (each
// process has at most one enabled event per state, matching the paper's
// determinism assumption). The explorer builds the reachable state graph for
// a fixed input assignment and computes, for every state, the set of decision
// values reachable in its extensions. In the paper's vocabulary:
//
//   - a state is v-valent if only v is reachable (Section 3.3);
//   - a state is bivalent if both 0 and 1 are reachable;
//   - two univalent states are compatible if they have the same valence;
//   - process p is a decider at state x if for every extension y of x, the
//     state y·p is univalent.
//
// The package provides exhaustive checks used by the E8 experiments: Lemma 3
// (every obstruction-free consensus object has a bivalent empty run), the
// Lemma 4 bivalence-preserving scheduling discipline (locating a decider),
// and the Lemma 2/5 conclusion that at a critical configuration the pending
// events of the deciding processes address the same non-register object. It
// also checks agreement over the entire reachable graph (used to show that
// test&set solves 2-process consensus but not 3-process consensus,
// Section 3.5), and searches for livelock pumps (fault-free non-deciding
// infinite runs, the executable content of Theorem 4).
//
// Explore builds the graph with a sequential BFS that interns states on
// their compact binary keys (State.AppendKey).
package explore

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
)

// State is a protocol state. Implementations must make the key encoding
// injective over reachable states.
type State interface {
	// AppendKey appends a compact binary encoding of the state to dst and
	// returns the extended slice. The encoding must be injective over the
	// reachable states of one exploration (it may omit components that are
	// constant across the run, such as the input assignment).
	AppendKey(dst []byte) []byte
}

// boolByte encodes a bool as one key byte.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Access describes the shared object a process's pending event addresses.
type Access struct {
	Object     string
	IsRegister bool
}

// Protocol is a deterministic explicit-state model.
type Protocol interface {
	// N returns the number of processes.
	N() int
	// Initial returns the initial state for the given per-process inputs.
	Initial(inputs []int) State
	// Enabled reports whether pid has a pending event at s.
	Enabled(s State, pid int) bool
	// Next returns the state after pid's pending event. It must only be
	// called when Enabled(s, pid) is true.
	Next(s State, pid int) State
	// Decision returns pid's decided value at s, if it has decided.
	Decision(s State, pid int) (int, bool)
	// Access describes pid's pending event at s. It must only be called when
	// Enabled(s, pid) is true.
	Access(s State, pid int) Access
}

// Valence is the set of decision values reachable from a state, as a bitmask
// (bit v set means value v is reachable in some extension). Decision values
// must therefore lie in [0, maxDecision); Explore rejects any other.
type Valence uint16

// maxDecision bounds the decision values a Valence can hold.
const maxDecision = 16

// Bivalent reports whether at least two distinct decision values are
// reachable.
func (v Valence) Bivalent() bool { return bits.OnesCount16(uint16(v)) >= 2 }

// Univalent reports whether exactly one decision value is reachable.
func (v Valence) Univalent() bool { return bits.OnesCount16(uint16(v)) == 1 }

// None reports whether no decision is reachable.
func (v Valence) None() bool { return v == 0 }

// Compatible reports whether two univalent valences agree (Section 3.3:
// "two univalent runs are compatible if they have the same valence").
func (v Valence) Compatible(o Valence) bool { return v == o }

// Has reports whether value val is reachable.
func (v Valence) Has(val int) bool { return v&(1<<uint(val)) != 0 }

// String renders the valence in the paper's vocabulary.
func (v Valence) String() string {
	switch {
	case v.None():
		return "undecided"
	case v.Bivalent():
		return "bivalent"
	default:
		for i := 0; i < maxDecision; i++ {
			if v.Has(i) {
				return fmt.Sprintf("%d-valent", i)
			}
		}
		return "?"
	}
}

// ErrLimit is returned when exploration exceeds the state budget.
var ErrLimit = errors.New("explore: state limit exceeded")

// node is one reachable state.
type node struct {
	state State
	// succ[pid] is the index of the pid-successor, or -1 when pid is not
	// enabled.
	succ []int32
	// local is the bitmask of values decided by some process *at* this state.
	local Valence
	// valence is the fixpoint over all extensions.
	valence Valence
}

// Graph is the reachable state graph of a protocol under one input
// assignment, with valences computed. Graphs are built by Explore; the
// analysis methods are not safe for concurrent use on one Graph (they share
// a memoized reachability cache).
type Graph struct {
	p      Protocol
	nodes  []node
	index  map[string]int32
	init   int32
	keyBuf []byte
	// reach memoizes the most recent reachableFrom results keyed by start
	// index, so the decider searches (FindDecider followed by IsDecider on
	// its result, as in the E8 critical-pair experiment) do not recompute
	// reachability per call. reachOrder evicts FIFO at reachCacheMax
	// entries: the reuse pattern is "the last few starts", so a small
	// window gives the speedup without pinning Size()-byte slices per
	// FindDecider iteration.
	reach      map[int][]bool
	reachOrder []int
}

// reachCacheMax bounds the memoized reachability sets held by a Graph
// (each entry is Size() bytes).
const reachCacheMax = 8

// localValence returns the bitmask of values decided by some process at s.
// A decision outside [0, maxDecision) has no bit in a Valence, so it is an
// error rather than silently dropped.
func localValence(p Protocol, s State) (Valence, error) {
	var local Valence
	for pid := 0; pid < p.N(); pid++ {
		v, ok := p.Decision(s, pid)
		if !ok {
			continue
		}
		if v < 0 || v >= maxDecision {
			return 0, fmt.Errorf("explore: p%d decides %d, outside the valence range [0,%d)", pid, v, maxDecision)
		}
		local |= 1 << uint(v)
	}
	return local, nil
}

// Explore builds the reachable graph from the protocol's initial state for
// the given inputs, visiting at most limit states, and computes all
// valences. It returns ErrLimit if the budget is exceeded, and an error
// naming the value if an input or a reachable decision lies outside
// [0, maxDecision). Inputs are checked up front because every model encodes
// "undecided" as -1, so a -1 input could never surface as a decision.
func Explore(p Protocol, inputs []int, limit int) (*Graph, error) {
	for pid, v := range inputs {
		if v < 0 || v >= maxDecision {
			return nil, fmt.Errorf("explore: p%d proposes %d, outside the valence range [0,%d)", pid, v, maxDecision)
		}
	}
	g := &Graph{p: p, index: make(map[string]int32)}
	init, err := g.intern(p.Initial(inputs))
	if err != nil {
		return nil, err
	}
	g.init = init
	// BFS.
	for head := 0; head < len(g.nodes); head++ {
		if len(g.nodes) > limit {
			return nil, ErrLimit
		}
		st := g.nodes[head].state
		for pid := 0; pid < p.N(); pid++ {
			if !p.Enabled(st, pid) {
				g.nodes[head].succ[pid] = -1
				continue
			}
			nxt, err := g.intern(p.Next(st, pid))
			if err != nil {
				return nil, err
			}
			g.nodes[head].succ[pid] = nxt // intern may have grown g.nodes
		}
	}
	g.computeValence()
	return g, nil
}

func (g *Graph) intern(s State) (int32, error) {
	g.keyBuf = s.AppendKey(g.keyBuf[:0])
	if idx, ok := g.index[string(g.keyBuf)]; ok {
		return idx, nil
	}
	local, err := localValence(g.p, s)
	if err != nil {
		return 0, err
	}
	idx := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{
		state:   s,
		succ:    make([]int32, g.p.N()),
		local:   local,
		valence: local,
	})
	g.index[string(g.keyBuf)] = idx
	return idx, nil
}

// computeValence propagates decision reachability backwards to a fixpoint
// (the graph may contain cycles, so iterative sweeps over the frozen edge
// arrays are used; no recursion).
func (g *Graph) computeValence() {
	for changed := true; changed; {
		changed = false
		for i := len(g.nodes) - 1; i >= 0; i-- {
			nd := &g.nodes[i]
			v := nd.valence
			for _, s := range nd.succ {
				if s >= 0 {
					v |= g.nodes[s].valence
				}
			}
			if v != nd.valence {
				nd.valence = v
				changed = true
			}
		}
	}
}

// Size returns the number of reachable states.
func (g *Graph) Size() int { return len(g.nodes) }

// InitialValence returns the valence of the initial state.
func (g *Graph) InitialValence() Valence { return g.nodes[g.init].valence }

// ValenceOf returns the valence of state index idx.
func (g *Graph) ValenceOf(idx int) Valence { return g.nodes[idx].valence }

// StateOf returns the state at index idx.
func (g *Graph) StateOf(idx int) State { return g.nodes[idx].state }

// Initial returns the index of the initial state.
func (g *Graph) Initial() int { return int(g.init) }

// Succ returns the pid-successor of idx, or -1 when pid is not enabled.
func (g *Graph) Succ(idx, pid int) int { return int(g.nodes[idx].succ[pid]) }

// reachableFrom marks all states reachable from start (including start).
// Results are memoized on the Graph; callers must not mutate the returned
// slice.
func (g *Graph) reachableFrom(start int) []bool {
	if seen, ok := g.reach[start]; ok {
		return seen
	}
	seen := make([]bool, len(g.nodes))
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.nodes[cur].succ {
			if s >= 0 && !seen[s] {
				seen[s] = true
				stack = append(stack, int(s))
			}
		}
	}
	if g.reach == nil {
		g.reach = make(map[int][]bool, reachCacheMax)
	}
	if len(g.reachOrder) >= reachCacheMax {
		delete(g.reach, g.reachOrder[0])
		g.reachOrder = g.reachOrder[1:]
	}
	g.reach[start] = seen
	g.reachOrder = append(g.reachOrder, start)
	return seen
}

// IsDecider reports whether process pid is a decider at state idx: for every
// extension y of idx, the state y·pid is univalent or y·pid = y (pid not
// enabled). This is the exhaustive version of the paper's definition.
func (g *Graph) IsDecider(idx, pid int) bool {
	seen := g.reachableFrom(idx)
	for i, ok := range seen {
		if !ok {
			continue
		}
		s := g.nodes[i].succ[pid]
		if s < 0 {
			continue // y·p = y when p is not enabled; vacuously fine
		}
		if g.nodes[s].valence.Bivalent() {
			return false
		}
	}
	return true
}

// FindDecider runs the bivalence-preserving scheduling discipline of
// Lemma 4: starting from the initial state, repeatedly move to a bivalent
// state of the form y·pid; when no such extension exists, pid is a decider
// at the current state. It returns the decider state's index, or -1 if the
// initial state is not bivalent or the discipline exceeds maxIter moves.
//
// When several extensions qualify, the one whose successor state has the
// smallest binary key is taken, so the walk — and whether it terminates
// within maxIter, which decides what cmd/explore and asympc report — is
// fixed by the states themselves rather than by the order in which the BFS
// happened to number them.
func (g *Graph) FindDecider(pid int, maxIter int) int {
	x := int(g.init)
	if !g.nodes[x].valence.Bivalent() {
		return -1
	}
	var bestKey, candKey []byte
	for iter := 0; iter < maxIter; iter++ {
		// Search the extensions of x for a y with y·pid bivalent, picking
		// the candidate y·pid with the smallest key.
		next := -1
		seen := g.reachableFrom(x)
		for i, ok := range seen {
			if !ok {
				continue
			}
			if !g.nodes[i].valence.Bivalent() {
				continue
			}
			s := g.nodes[i].succ[pid]
			if s < 0 || !g.nodes[s].valence.Bivalent() {
				continue
			}
			candKey = g.nodes[s].state.AppendKey(candKey[:0])
			if next == -1 || bytes.Compare(candKey, bestKey) < 0 {
				next = int(s)
				bestKey = append(bestKey[:0], candKey...)
			}
		}
		if next == -1 {
			return x // pid is a decider at x
		}
		x = next
	}
	return -1
}

// Critical describes a critical configuration in the sense of Lemmas 2 and
// 5: a bivalent state y and processes p, q whose one-step extensions y·p and
// y·q·p are univalent and incompatible.
type Critical struct {
	StateIdx int
	P, Q     int
	AccessP  Access
	AccessQ  Access
}

// FindCriticalPairs enumerates every critical configuration in the graph.
// Lemma 2 predicts that in each of them p and q access the same object and
// that object is not an atomic register; the caller asserts that. The set of
// configurations is numbering-independent; only the StateIdx fields depend
// on the BFS node order.
func (g *Graph) FindCriticalPairs() []Critical {
	var out []Critical
	n := g.p.N()
	for i := range g.nodes {
		nd := &g.nodes[i]
		if !nd.valence.Bivalent() {
			continue
		}
		for p := 0; p < n; p++ {
			sp := nd.succ[p]
			if sp < 0 || !g.nodes[sp].valence.Univalent() {
				continue
			}
			for q := 0; q < n; q++ {
				if q == p {
					continue
				}
				sq := nd.succ[q]
				if sq < 0 {
					continue
				}
				sqp := g.nodes[sq].succ[p]
				if sqp < 0 || !g.nodes[sqp].valence.Univalent() {
					continue
				}
				if g.nodes[sp].valence.Compatible(g.nodes[sqp].valence) {
					continue
				}
				out = append(out, Critical{
					StateIdx: i,
					P:        p,
					Q:        q,
					AccessP:  g.p.Access(nd.state, p),
					AccessQ:  g.p.Access(nd.state, q),
				})
			}
		}
	}
	return out
}

// AgreementViolation is a reachable state in which two processes have
// decided different values.
type AgreementViolation struct {
	StateIdx int
	P, Q     int
	VP, VQ   int
}

// CheckAgreement scans every reachable state for two processes that decided
// different values, returning the first violation found. The verdict is
// numbering-independent; the witness fields are not.
func (g *Graph) CheckAgreement() (AgreementViolation, bool) {
	n := g.p.N()
	for i := range g.nodes {
		st := g.nodes[i].state
		for p := 0; p < n; p++ {
			vp, ok := g.p.Decision(st, p)
			if !ok {
				continue
			}
			for q := p + 1; q < n; q++ {
				vq, ok := g.p.Decision(st, q)
				if ok && vq != vp {
					return AgreementViolation{StateIdx: i, P: p, Q: q, VP: vp, VQ: vq}, true
				}
			}
		}
	}
	return AgreementViolation{}, false
}

// CheckValidity verifies that every decided value in every reachable state
// is one of the inputs.
func (g *Graph) CheckValidity(inputs []int) bool {
	allowed := make(map[int]bool, len(inputs))
	for _, v := range inputs {
		allowed[v] = true
	}
	n := g.p.N()
	for i := range g.nodes {
		st := g.nodes[i].state
		for p := 0; p < n; p++ {
			if v, ok := g.p.Decision(st, p); ok && !allowed[v] {
				return false
			}
		}
	}
	return true
}

// FindReachable returns the index of a reachable state satisfying pred,
// searching from the given start index, or -1.
func (g *Graph) FindReachable(start int, pred func(State) bool) int {
	seen := g.reachableFrom(start)
	for i, ok := range seen {
		if ok && pred(g.nodes[i].state) {
			return i
		}
	}
	return -1
}

// SoloDecides reports whether running process pid alone from state idx leads
// to a decision by pid within maxSteps events — the operational reading of
// obstruction-free termination for explicit-state models.
func (g *Graph) SoloDecides(idx, pid, maxSteps int) bool {
	cur := idx
	for i := 0; i < maxSteps; i++ {
		if _, ok := g.p.Decision(g.nodes[cur].state, pid); ok {
			return true
		}
		nxt := g.nodes[cur].succ[pid]
		if nxt < 0 {
			return false // pid is stuck undecided
		}
		cur = int(nxt)
	}
	return false
}

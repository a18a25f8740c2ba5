package service

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"
)

// randomOpStream draws n ops over a few keys, mixing gets, puts and CAS
// hits and misses. Most ops carry a fresh ID; some reuse a recent or an
// old one (retries, some of them long since evicted from a small dedup
// table), and some carry none.
func randomOpStream(rng *rand.Rand, n int) []Op {
	ops := make([]Op, 0, n)
	nextID := uint64(0)
	for len(ops) < n {
		if len(ops) > 0 && rng.IntN(5) == 0 {
			ops = append(ops, ops[rng.IntN(len(ops))]) // retry, same ID
			continue
		}
		op := Op{Key: fmt.Sprintf("k%d", rng.IntN(4))}
		switch rng.IntN(3) {
		case 0:
			op.Kind = OpGet
		case 1:
			op.Kind, op.Val = OpPut, fmt.Sprintf("v%d", rng.IntN(6))
		default:
			op.Kind, op.Old, op.Val = OpCAS, fmt.Sprintf("v%d", rng.IntN(6)), fmt.Sprintf("v%d", rng.IntN(6))
		}
		if rng.IntN(6) != 0 {
			nextID++
			op.ID = nextID
		}
		ops = append(ops, op)
	}
	return ops
}

// TestMachineMatchesStore: the same op streams — repeated IDs included,
// with a dedup bound small enough to evict — give identical results and
// identical states (per-key versions and the dedup table) through a bare
// Machine and through a one-worker Store running the universal
// construction over it.
func TestMachineMatchesStore(t *testing.T) {
	const maxDedup = 8
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		ops := randomOpStream(rng, 300)
		m := NewMachine(maxDedup)
		s := New(Config{Shards: 1, WorkersPerShard: 1, MaxDedup: maxDedup, Audit: AuditConfig{Disabled: true}})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		dups := 0
		for i, op := range ops {
			res, ver, dup := m.Apply(op)
			if dup {
				dups++
			}
			got, err := s.Do(ctx, op)
			if err != nil {
				t.Fatalf("seed %d op %d: store: %v", seed, i, err)
			}
			if got != res {
				t.Fatalf("seed %d op %d %+v: machine %+v, store %+v", seed, i, op, res, got)
			}
			// The worker applied op before answering, and is the replica's
			// only writer: its state — every key's version, every
			// remembered ID's result and version — must match.
			if sm := s.shards[0].slots[0].rep.State(); !reflect.DeepEqual(sm, m) {
				t.Fatalf("seed %d op %d %+v (v%d): state diverges:\nmachine %+v\nstore   %+v", seed, i, op, ver, m, sm)
			}
		}
		cancel()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if dups == 0 || len(m.order) != maxDedup {
			t.Fatalf("seed %d: vacuous stream (%d dedup hits, %d remembered IDs)", seed, dups, len(m.order))
		}
	}
}

// TestMachineDedupEvictsOldest: a retry is answered from the table while
// its ID is remembered and re-applied once the FIFO bound evicted it.
func TestMachineDedupEvictsOldest(t *testing.T) {
	m := NewMachine(2)
	put := Op{Kind: OpPut, Key: "k", Val: "a", ID: 1}
	if _, ver, dup := m.Apply(put); dup || ver != 1 {
		t.Fatalf("first apply: ver %d dup %v", ver, dup)
	}
	if res, ver, dup := m.Apply(put); !dup || ver != 1 || !res.OK {
		t.Fatalf("retry: %+v ver %d dup %v, want the remembered outcome", res, ver, dup)
	}
	m.Apply(Op{Kind: OpGet, Key: "k", ID: 2})
	m.Apply(Op{Kind: OpGet, Key: "k", ID: 3}) // evicts ID 1
	if _, ver, dup := m.Apply(put); dup || ver != 4 {
		t.Fatalf("retry after eviction: ver %d dup %v, want a fresh apply at version 4", ver, dup)
	}
}

// BenchmarkMachineApply is the state-machine rung of the ladder: the same
// 64-put batch as BenchmarkServiceDoBatch applied straight to a Machine,
// with no log, queue or worker around it. ns/op is per 64-op batch.
func BenchmarkMachineApply(b *testing.B) {
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: fmt.Sprintf("k%d", i), Val: "v"}
	}
	m := NewMachine(0)
	b.ReportAllocs()
	for b.Loop() {
		for _, op := range ops {
			m.Apply(op)
		}
	}
	b.ReportMetric(float64(b.N*len(ops))/b.Elapsed().Seconds(), "ops/s")
}

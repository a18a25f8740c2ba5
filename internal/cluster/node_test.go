package cluster

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/service"
)

// TestRedirectReroutesStaleFrontend: a front end whose owner hint is stale
// routes to a non-owner store node, which must answer with RepRedirect
// naming the owner it believes in; the front end re-aims the pending route
// and the op still completes — counted in Status().Redirects.
func TestRedirectReroutesStaleFrontend(t *testing.T) {
	const procs = 5 // submitter, driver, 3 node loops
	r := sched.NewRun(procs, &sched.RoundRobin{})
	stores := []NodeID{0, 1, 2}
	vn := NewVirtualNet(3, NetPlan{})
	nodes := make([]*Node, 3)
	for i := 0; i < 3; i++ {
		n := New(Config{
			ID: NodeID(i), Nodes: 3, StoreNodes: stores, Shards: 1,
			Frontend: true, Store: true, RetainLog: true,
		}, vn.Endpoint(NodeID(i)), nil)
		nodes[i] = n
		r.Spawn(2+i, n.Run)
	}
	finished := false
	r.Spawn(0, func(p *sched.Proc) {
		if _, err := nodes[0].DoBatchOn(p, []service.Op{{Kind: service.OpPut, Key: "k", Val: "v1", ID: 1}}); err != nil {
			t.Errorf("eager put: %v", err)
		}
		// Stale the front end's owner hint: shard 0 is owned by node 0, but
		// the front end now believes node 2 owns it. Mutating loop-owned
		// state is safe here — every proc of a controlled run holds the step
		// token exclusively.
		nodes[0].owners[0] = 2
		res, err := nodes[0].DoBatchOn(p, []service.Op{{Kind: service.OpGet, Key: "k", ID: 2}})
		if err != nil {
			t.Errorf("redirected get: %v", err)
		} else if !res[0].OK || res[0].Val != "v1" {
			t.Errorf("redirected get = %+v, want v1", res[0])
		}
		finished = true
	})
	r.Spawn(1, func(p *sched.Proc) {
		p.Park(func() bool { return finished })
		for _, n := range nodes {
			n.CloseOn(p)
		}
	})
	res := r.Execute(1 << 20)
	for id, s := range res.Status {
		if s != sched.Done {
			t.Fatalf("proc %d ended %v", id, s)
		}
	}
	if got := nodes[0].Status().Redirects; got == 0 {
		t.Fatal("front end reports no redirects")
	}
	if nodes[2].Status().Shards[0].Owner != 0 {
		t.Fatalf("node 2 owner hint corrupted: %+v", nodes[2].Status().Shards[0])
	}
}

// auditScript plays a sequential put/get script over two keys through a
// 3-node virtual cluster and returns the nodes' summed audit verdicts.
// With corrupt set, shard 0's owner (node 0) answers gets on k0 as if k0
// had never been written.
func auditScript(t *testing.T, corrupt bool) service.AuditStats {
	t.Helper()
	r := sched.NewRun(5, &sched.RoundRobin{}) // client, driver, 3 node loops
	vn := NewVirtualNet(3, NetPlan{})
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(Config{
			ID: NodeID(i), Nodes: 3, StoreNodes: []NodeID{0, 1, 2}, Shards: 1,
			Frontend: true, Store: true, RetainLog: true,
		}, vn.Endpoint(NodeID(i)), nil)
		r.Spawn(2+i, nodes[i].Run)
	}
	if corrupt {
		nodes[0].debugCorruptResult = "k0"
	}
	finished := false
	r.Spawn(0, func(p *sched.Proc) {
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("k%d", i/2%2)
			op := service.Op{Kind: service.OpPut, Key: key, Val: fmt.Sprintf("v%d", i), ID: uint64(i + 1)}
			if i%2 == 1 {
				op = service.Op{Kind: service.OpGet, Key: key, ID: uint64(i + 1)}
			}
			if _, err := nodes[1].DoBatchOn(p, []service.Op{op}); err != nil {
				t.Errorf("op %d: %v", i, err)
				break
			}
		}
		finished = true
	})
	r.Spawn(1, func(p *sched.Proc) {
		p.Park(func() bool { return finished })
		for _, n := range nodes {
			n.CloseOn(p)
		}
	})
	res := r.Execute(1 << 22)
	for id, s := range res.Status {
		if s != sched.Done {
			t.Fatalf("proc %d ended %v", id, s)
		}
	}
	var sum service.AuditStats
	for _, n := range nodes {
		a := n.Stats().Audit
		sum.WindowsChecked += a.WindowsChecked
		sum.Violations += a.Violations
	}
	return sum
}

// TestNodeAuditorDetectsCorruptResult is the must-detect canary for the
// node auditor: with the owner answering stale reads on one key, the
// auditor must flag violations; without the injected bug, the same script
// must complete windows and stay clean.
func TestNodeAuditorDetectsCorruptResult(t *testing.T) {
	clean := auditScript(t, false)
	if clean.WindowsChecked == 0 || clean.Violations != 0 {
		t.Fatalf("clean run: %+v, want windows checked and no violations", clean)
	}
	bad := auditScript(t, true)
	if bad.Violations == 0 {
		t.Fatalf("corrupt run: %+v, want violations", bad)
	}
	t.Logf("clean: %d windows; corrupt: %d of %d windows violated", clean.WindowsChecked, bad.Violations, bad.WindowsChecked)
}

package gbt

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
	"chainaudit/internal/stats"
)

// The reference builders below are the template builders as they were
// before greedyBuild and AncestorScore.Build learned to stop once the block
// is full: they push candidates one by one and pop until the heap is empty.
// The equivalence tests pin the production builders to them.

// referenceGreedyBuild is greedyBuild without heap.Init or the early stop.
func referenceGreedyBuild(nodes []*node, maxVSize int64) Template {
	var h scoreHeap
	for _, n := range nodes {
		if n.blockedBy == 0 {
			heap.Push(&h, n)
		}
	}
	var t Template
	var exclude func(*node)
	exclude = func(n *node) {
		if n.excluded {
			return
		}
		n.excluded = true
		for _, c := range n.children {
			exclude(c)
		}
	}
	for h.Len() > 0 {
		n := heap.Pop(&h).(*node)
		if n.excluded {
			continue
		}
		tx := n.entry.Tx
		if t.VSize+tx.VSize > maxVSize {
			exclude(n)
			continue
		}
		t.Txs = append(t.Txs, tx)
		t.TotalFee += tx.Fee
		t.VSize += tx.VSize
		for _, c := range n.children {
			if c.excluded {
				continue
			}
			c.blockedBy--
			if c.blockedBy == 0 {
				heap.Push(&h, c)
			}
		}
	}
	return t
}

// refCandidate and refCandHeap are the reference ancestor-score heap.
type refCandidate struct {
	node  any
	score float64
	id    chain.TxID
}

type refCandHeap []refCandidate

func (h refCandHeap) Len() int { return len(h) }
func (h refCandHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return lessID(h[i].id, h[j].id)
}
func (h refCandHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refCandHeap) Push(x any)   { *h = append(*h, x.(refCandidate)) }
func (h *refCandHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// referenceAncestorScore is AncestorScore.Build with a seen map per package
// walk, one heap.Push per candidate, and no early stop.
func referenceAncestorScore(entries []*mempool.Entry, maxVSize int64) Template {
	type refPkgNode struct {
		entry    *mempool.Entry
		selected bool
		excluded bool
	}
	byID := make(map[chain.TxID]*refPkgNode, len(entries))
	for _, e := range entries {
		byID[e.Tx.ID] = &refPkgNode{entry: e}
	}
	pack := func(n *refPkgNode) (members []*refPkgNode, fee chain.Amount, vsize int64, ok bool) {
		seen := map[chain.TxID]bool{}
		var visit func(*refPkgNode) bool
		visit = func(cur *refPkgNode) bool {
			if cur.excluded {
				return false
			}
			if cur.selected || seen[cur.entry.Tx.ID] {
				return true
			}
			seen[cur.entry.Tx.ID] = true
			for _, p := range cur.entry.Parents() {
				pn := byID[p.Tx.ID]
				if pn == nil {
					continue
				}
				if !visit(pn) {
					return false
				}
			}
			members = append(members, cur)
			fee += cur.entry.Tx.Fee
			vsize += cur.entry.Tx.VSize
			return true
		}
		if !visit(n) {
			return nil, 0, 0, false
		}
		return members, fee, vsize, true
	}
	h := &refCandHeap{}
	pushCand := func(n *refPkgNode) {
		if n.selected || n.excluded {
			return
		}
		_, fee, vsize, ok := pack(n)
		if !ok || vsize == 0 {
			return
		}
		heap.Push(h, refCandidate{node: n, score: float64(fee) / float64(vsize), id: n.entry.Tx.ID})
	}
	for _, e := range entries {
		pushCand(byID[e.Tx.ID])
	}
	var t Template
	for h.Len() > 0 {
		c := heap.Pop(h).(refCandidate)
		n := c.node.(*refPkgNode)
		if n.selected || n.excluded {
			continue
		}
		members, fee, vsize, ok := pack(n)
		if !ok {
			continue
		}
		fresh := float64(fee) / float64(vsize)
		if fresh != c.score {
			heap.Push(h, refCandidate{node: n, score: fresh, id: c.id})
			continue
		}
		if t.VSize+vsize > maxVSize {
			n.excluded = true
			continue
		}
		for _, m := range members {
			m.selected = true
			t.Txs = append(t.Txs, m.entry.Tx)
			t.TotalFee += m.entry.Tx.Fee
			t.VSize += m.entry.Tx.VSize
		}
		for _, m := range members {
			for _, ch := range m.entry.Children() {
				if cn := byID[ch.Tx.ID]; cn != nil {
					pushCand(cn)
				}
			}
		}
	}
	return t
}

// randomCPFPPool fills a pool with n transactions: roots, children spending
// either output of a pending transaction (so chains branch and conflicting
// spends are refused), and two-parent children. Fee-rates are drawn from a
// short list so ties are common.
func randomCPFPPool(rng *stats.RNG, trial, n int) *mempool.Pool {
	p := mempool.New(mempool.WithMinFeeRate(0))
	rates := []chain.Amount{0, 1, 2, 5, 5, 10, 20, 50}
	var pending []*chain.Tx
	for i := 0; i < n; i++ {
		vsize := int64(100 + rng.Intn(900))
		fee := rates[rng.Intn(len(rates))] * chain.Amount(vsize)
		tx := &chain.Tx{VSize: vsize, Fee: fee, Time: baseTime.Add(time.Duration(i) * time.Second)}
		nParents := 0
		if len(pending) > 0 && rng.Float64() < 0.5 {
			nParents = 1
			if rng.Float64() < 0.2 {
				nParents = 2
			}
		}
		var in chain.Amount
		for k := 0; k < nParents; k++ {
			par := pending[rng.Intn(len(pending))]
			out := rng.Intn(len(par.Outputs))
			tx.Inputs = append(tx.Inputs, chain.TxIn{
				PrevOut: chain.OutPoint{TxID: par.ID, Index: uint32(out)},
				Address: par.Outputs[out].Address,
				Value:   par.Outputs[out].Value,
			})
			in += par.Outputs[out].Value
		}
		if nParents == 0 {
			tx.Inputs = []chain.TxIn{{
				PrevOut: chain.OutPoint{TxID: chain.TxID{byte(trial), byte(trial >> 8), 0xEF}, Index: uint32(i)},
				Address: "sender",
				Value:   chain.BTC,
			}}
			in = chain.BTC
		}
		if in <= fee {
			continue
		}
		rest := in - fee
		tx.Outputs = []chain.TxOut{{Address: "a", Value: rest / 2}, {Address: "b", Value: rest - rest/2}}
		tx.ComputeID()
		if err := p.Add(tx, tx.Time); err != nil {
			continue // a conflicting second spend, or a duplicate input
		}
		pending = append(pending, tx)
	}
	return p
}

// tightCapacities lists the capacities where an early stop could go wrong:
// nothing fits, exactly the smallest entry fits, exactly one ancestor
// package fits, and a few fractions of the whole pool.
func tightCapacities(rng *stats.RNG, entries []*mempool.Entry) []int64 {
	var total int64
	smallest := int64(math.MaxInt64)
	for _, e := range entries {
		total += e.Tx.VSize
		smallest = min(smallest, e.Tx.VSize)
	}
	caps := []int64{0, total / 10, total / 3, total / 2, total, total + 1}
	if len(entries) > 0 {
		caps = append(caps, smallest-1, smallest)
		for k := 0; k < 3; k++ {
			e := entries[rng.Intn(len(entries))]
			pkg := e.Tx.VSize
			for _, a := range e.Ancestors() {
				pkg += a.Tx.VSize
			}
			caps = append(caps, pkg)
		}
	}
	return caps
}

func sameTemplate(a, b Template) error {
	if a.TotalFee != b.TotalFee || a.VSize != b.VSize || len(a.Txs) != len(b.Txs) {
		return fmt.Errorf("totals differ: %d txs / fee %d / %d vB vs %d txs / fee %d / %d vB",
			len(a.Txs), a.TotalFee, a.VSize, len(b.Txs), b.TotalFee, b.VSize)
	}
	for i := range a.Txs {
		if a.Txs[i].ID != b.Txs[i].ID {
			return fmt.Errorf("tx %d differs: %s vs %s", i, a.Txs[i].ID.Short(), b.Txs[i].ID.Short())
		}
	}
	return nil
}

// scoredBuilds pairs each greedy policy's score with its production entry
// point. The quantized score makes ties the rule rather than the exception.
var scoredBuilds = []struct {
	name  string
	score func(*mempool.Entry) float64
	build func([]*mempool.Entry, int64) Template
}{
	{"feerate", func(e *mempool.Entry) float64 { return float64(e.Tx.FeeRate()) }, FeeRate{}.Build},
	{"priority", func(e *mempool.Entry) float64 { return PriorityScore(e.Tx) }, Priority{}.Build},
	{"quantized", quantizedScore, func(es []*mempool.Entry, c int64) Template { return BuildWithScore(es, c, quantizedScore) }},
}

func quantizedScore(e *mempool.Entry) float64 { return math.Floor(float64(e.Tx.FeeRate()) / 10) }

// checkAgainstReference asserts every production builder returns the
// reference builder's template for entries at capacity.
func checkAgainstReference(t *testing.T, label string, entries []*mempool.Entry, capacity int64) {
	t.Helper()
	for _, sb := range scoredBuilds {
		want := referenceGreedyBuild(buildGraph(entries, sb.score), capacity)
		if err := sameTemplate(sb.build(entries, capacity), want); err != nil {
			t.Fatalf("%s: %s at capacity %d: %v", label, sb.name, capacity, err)
		}
	}
	want := referenceAncestorScore(entries, capacity)
	if err := sameTemplate(AncestorScore{}.Build(entries, capacity), want); err != nil {
		t.Fatalf("%s: ancestorscore at capacity %d: %v", label, capacity, err)
	}
}

// TestBuildersMatchReference drives every builder over random CPFP mempools
// at tight and loose capacities and requires the reference's template.
func TestBuildersMatchReference(t *testing.T) {
	rng := stats.NewRNG(2021)
	for trial := 0; trial < 40; trial++ {
		entries := randomCPFPPool(rng, trial, 20+rng.Intn(200)).Entries()
		for _, capacity := range tightCapacities(rng, entries) {
			checkAgainstReference(t, fmt.Sprintf("trial %d", trial), entries, capacity)
		}
	}
}

// TestBuildersMatchReferenceZeroVSize plants a zero-vsize root entry, which
// fits even in a full block: the smallest vsize is then 0, so the early stop
// must never fire and the entry must still be placed.
func TestBuildersMatchReferenceZeroVSize(t *testing.T) {
	rng := stats.NewRNG(77)
	for trial := 0; trial < 20; trial++ {
		entries := randomCPFPPool(rng, trial, 30+rng.Intn(60)).Entries()
		var roots []*chain.Tx
		for _, e := range entries {
			if len(e.Parents()) == 0 {
				roots = append(roots, e.Tx)
			}
		}
		// The pool refuses non-positive vsizes, so shrink an admitted
		// entry in place. A positive fee keeps its package score finite.
		zero := roots[rng.Intn(len(roots))]
		zero.VSize, zero.Fee = 0, 1
		for _, capacity := range tightCapacities(rng, entries) {
			checkAgainstReference(t, fmt.Sprintf("trial %d", trial), entries, capacity)
		}
		if tpl := (FeeRate{}).Build(entries, 0); len(tpl.Txs) != 1 || tpl.Txs[0] != zero {
			t.Fatalf("trial %d: zero-capacity template has %d txs, want the zero-vsize one", trial, len(tpl.Txs))
		}
	}
}

// TestPoliciesIgnoreEntryOrder is the proof that callers need not sort the
// mempool: every policy ranks by (score, TxID), so a shuffled view yields
// the same template.
func TestPoliciesIgnoreEntryOrder(t *testing.T) {
	rng := stats.NewRNG(4)
	for trial := 0; trial < 30; trial++ {
		entries := randomCPFPPool(rng, trial, 20+rng.Intn(150)).Entries()
		for _, capacity := range tightCapacities(rng, entries) {
			shuffled := append([]*mempool.Entry(nil), entries...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, pol := range []Policy{FeeRate{}, Priority{}, AncestorScore{}} {
				if err := sameTemplate(pol.Build(shuffled, capacity), pol.Build(entries, capacity)); err != nil {
					t.Fatalf("trial %d: %s at capacity %d: shuffled entries: %v", trial, pol.Name(), capacity, err)
				}
			}
		}
	}
}

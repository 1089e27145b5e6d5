package mempool

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/stats"
)

// recountVSize is the reference the pool's running vsize total must match:
// a full walk of the pending entries.
func recountVSize(p *Pool) int64 {
	var v int64
	for _, e := range p.entries {
		v += e.Tx.VSize
	}
	return v
}

// checkSpenders verifies the conflict index holds exactly the outpoints the
// pending entries spend, each mapped to its pending spender.
func checkSpenders(p *Pool) error {
	inputs := 0
	for _, e := range p.entries {
		for _, in := range e.Tx.Inputs {
			inputs++
			if p.spenders[in.PrevOut] != e {
				return fmt.Errorf("outpoint of %s not indexed to it", e.Tx.ID.Short())
			}
		}
	}
	if len(p.spenders) != inputs {
		return fmt.Errorf("%d indexed outpoints, %d pending inputs", len(p.spenders), inputs)
	}
	return nil
}

// coin is a spendable outpoint and its value.
type coin struct {
	op    chain.OutPoint
	value chain.Amount
}

// spendTx builds a valid transaction spending coins into two outputs.
func spendTx(coins []coin, fee chain.Amount, vsize int64, at time.Time) *chain.Tx {
	tx := &chain.Tx{VSize: vsize, Fee: fee, Time: at}
	var in chain.Amount
	for _, c := range coins {
		tx.Inputs = append(tx.Inputs, chain.TxIn{PrevOut: c.op, Address: "sender", Value: c.value})
		in += c.value
	}
	out := in - fee
	tx.Outputs = []chain.TxOut{{Address: "a", Value: out / 2}, {Address: "b", Value: out - out/2}}
	tx.ComputeID()
	return tx
}

// inputsOf returns tx's inputs as coins, for building conflicts.
func inputsOf(tx *chain.Tx) []coin {
	out := make([]coin, len(tx.Inputs))
	for i, in := range tx.Inputs {
		out[i] = coin{op: in.PrevOut, value: in.Value}
	}
	return out
}

// blockOf wraps txs in a block behind a placeholder coinbase.
func blockOf(txs ...*chain.Tx) *chain.Block {
	return &chain.Block{Txs: append([]*chain.Tx{{VSize: 120}}, txs...)}
}

// shadow is the property test's own record of which transactions the pool
// should hold, kept from the transactions themselves rather than the pool's
// maps.
type shadow map[chain.TxID]*chain.Tx

// closure returns roots plus every shadow transaction descending from them
// through spent outputs.
func (s shadow) closure(roots map[chain.TxID]bool) map[chain.TxID]bool {
	out := make(map[chain.TxID]bool, len(roots))
	for id := range roots {
		out[id] = true
	}
	for grew := true; grew; {
		grew = false
		for id, tx := range s {
			if out[id] {
				continue
			}
			for _, in := range tx.Inputs {
				if out[in.PrevOut.TxID] {
					out[id] = true
					grew = true
					break
				}
			}
		}
	}
	return out
}

// spending returns the shadow transactions other than tx that spend one of
// tx's outpoints.
func (s shadow) spending(tx *chain.Tx) map[chain.TxID]bool {
	spent := make(map[chain.OutPoint]bool, len(tx.Inputs))
	for _, in := range tx.Inputs {
		spent[in.PrevOut] = true
	}
	out := make(map[chain.TxID]bool)
	for id, other := range s {
		if id == tx.ID {
			continue
		}
		for _, in := range other.Inputs {
			if spent[in.PrevOut] {
				out[id] = true
			}
		}
	}
	return out
}

// check compares the pool with the shadow: the same members (Len, Contains,
// Entries), a running TotalVSize equal to both the shadow's sum and a full
// recount, a conflict index matching the pending inputs, and no member
// spending an output of a transaction that was evicted rather than
// confirmed.
func (s shadow) check(p *Pool, evicted map[chain.TxID]bool) error {
	if p.Len() != len(s) {
		return fmt.Errorf("Len = %d, shadow holds %d", p.Len(), len(s))
	}
	var want int64
	for id, tx := range s {
		if !p.Contains(id) {
			return fmt.Errorf("%s missing from pool", id.Short())
		}
		for _, in := range tx.Inputs {
			if evicted[in.PrevOut.TxID] {
				return fmt.Errorf("%s outlived its evicted parent %s", id.Short(), in.PrevOut.TxID.Short())
			}
		}
		want += tx.VSize
	}
	entries := p.Entries()
	if len(entries) != len(s) {
		return fmt.Errorf("Entries holds %d, shadow %d", len(entries), len(s))
	}
	for _, e := range entries {
		if s[e.Tx.ID] != e.Tx {
			return fmt.Errorf("Entries holds %s, not in shadow", e.Tx.ID.Short())
		}
	}
	if got := p.TotalVSize(); got != want || got != recountVSize(p) {
		return fmt.Errorf("TotalVSize = %d, shadow sum %d, recount %d", got, want, recountVSize(p))
	}
	return checkSpenders(p)
}

// drop removes ids from the shadow and records them as evicted.
func (s shadow) drop(ids map[chain.TxID]bool, evicted map[chain.TxID]bool) {
	for id := range ids {
		delete(s, id)
		evicted[id] = true
	}
}

// sameIDs reports whether txs holds exactly the ids, each once.
func sameIDs(txs []*chain.Tx, ids map[chain.TxID]bool) bool {
	if len(txs) != len(ids) {
		return false
	}
	seen := make(map[chain.TxID]bool, len(txs))
	for _, tx := range txs {
		if !ids[tx.ID] || seen[tx.ID] {
			return false
		}
		seen[tx.ID] = true
	}
	return true
}

// TestPoolAccountingProperty drives random sequences of every pool mutator
// — Add and AddOrReplace (RBF, over descendant chains), Remove,
// RemoveConfirmed, RemoveConflicts and EvictToSize — against a shadow
// record of the pending set predicted from the transactions alone. After
// every operation the pool's membership, Len, Entries, running TotalVSize
// and conflict index must agree with it.
func TestPoolAccountingProperty(t *testing.T) {
	ops := []string{"add", "add-child", "replace", "replace-child", "remove", "confirm", "conflict-block", "evict"}
	for seed := uint64(1); seed <= 60; seed++ {
		rng := stats.NewRNG(seed)
		p := New(WithMinFeeRate(0))
		s := make(shadow)
		evicted := make(map[chain.TxID]bool)
		var fresh uint32
		freshCoin := func() coin {
			fresh++
			return coin{op: chain.OutPoint{TxID: chain.TxID{0x77, byte(seed)}, Index: fresh}, value: chain.BTC}
		}
		fee := func() chain.Amount { return chain.Amount(rng.Intn(100_000)) }
		vsize := func() int64 { return int64(100 + rng.Intn(900)) }
		// add admits tx with Add; on success it joins the shadow, on
		// refusal it must not be pending.
		add := func(tx *chain.Tx, at time.Time) error {
			if err := p.Add(tx, at); err != nil {
				if p.Contains(tx.ID) {
					return fmt.Errorf("refused %s is pending: %v", tx.ID.Short(), err)
				}
				return nil
			}
			s[tx.ID] = tx
			return nil
		}
		// replace admits tx with AddOrReplace: on success exactly its
		// conflicts and their descendants leave, on refusal nothing does.
		replace := func(tx *chain.Tx, at time.Time) error {
			losers := s.closure(s.spending(tx))
			out, err := p.AddOrReplace(tx, at)
			if err != nil {
				if len(out) != 0 || p.Contains(tx.ID) {
					return fmt.Errorf("refused replacement evicted %d, pending %v: %v", len(out), p.Contains(tx.ID), err)
				}
				return nil
			}
			if !sameIDs(out, losers) {
				return fmt.Errorf("replacement evicted %d txs, want %d", len(out), len(losers))
			}
			s.drop(losers, evicted)
			s[tx.ID] = tx
			return nil
		}
		n := 40 + rng.Intn(160)
		for i := 0; i < n; i++ {
			at := baseTime.Add(time.Duration(i) * time.Second)
			entries := p.Entries()
			pick := func() *Entry { return entries[rng.Intn(len(entries))] }
			op := ops[rng.Intn(len(ops))]
			if len(entries) == 0 {
				op = "add"
			}
			var err error
			switch op {
			case "add":
				coins := []coin{freshCoin()}
				if rng.Float64() < 0.3 {
					coins = append(coins, freshCoin())
				}
				err = add(spendTx(coins, fee(), vsize(), at), at)
			case "add-child", "replace-child":
				// Spend one of a pending tx's outputs, growing a descendant
				// chain; a second child of the same output conflicts.
				parent := pick().Tx
				k := rng.Intn(2)
				c := coin{op: chain.OutPoint{TxID: parent.ID, Index: uint32(k)}, value: parent.Outputs[k].Value}
				tx := spendTx([]coin{c}, fee(), vsize(), at)
				if op == "add-child" {
					err = add(tx, at)
				} else {
					err = replace(tx, at)
				}
			case "replace":
				// Double-spend a pending tx's inputs: a bump evicts it and its
				// descendants, an underpriced one is refused.
				victim := pick().Tx
				err = replace(spendTx(inputsOf(victim), fee(), vsize(), at), at)
			case "remove":
				// Removal is confirmation: children stay.
				id := pick().Tx.ID
				if !p.Remove(id) {
					err = fmt.Errorf("Remove(%s) of a pending tx = false", id.Short())
				} else if p.Remove(id) {
					err = fmt.Errorf("second Remove(%s) = true", id.Short())
				}
				delete(s, id)
			case "confirm":
				var txs []*chain.Tx
				want := 0
				for _, e := range entries {
					if rng.Float64() < 0.3 {
						txs = append(txs, e.Tx)
						want++
					}
				}
				txs = append(txs, spendTx([]coin{freshCoin()}, fee(), vsize(), at))
				if got := p.RemoveConfirmed(blockOf(txs...)); got != want {
					err = fmt.Errorf("RemoveConfirmed = %d, want %d", got, want)
				}
				for _, tx := range txs {
					delete(s, tx.ID)
				}
			case "conflict-block":
				// A block confirming a rival spend of a pending tx's inputs.
				rival := spendTx(inputsOf(pick().Tx), fee(), vsize(), at)
				losers := s.closure(s.spending(rival))
				if got := p.RemoveConflicts(blockOf(rival)); got != len(losers) {
					err = fmt.Errorf("RemoveConflicts = %d, want %d", got, len(losers))
				}
				s.drop(losers, evicted)
			case "evict":
				// Which victims go is policy; that they were pending, left
				// with their descendants, and brought the pool within
				// budget is checked here and by the orphan check below.
				budget := int64(rng.Float64() * float64(p.TotalVSize()))
				out := p.EvictToSize(budget)
				ids := make(map[chain.TxID]bool, len(out))
				for _, tx := range out {
					if s[tx.ID] == nil || ids[tx.ID] {
						err = fmt.Errorf("EvictToSize returned %s twice or not pending", tx.ID.Short())
					}
					ids[tx.ID] = true
				}
				s.drop(ids, evicted)
				if p.TotalVSize() > budget {
					err = fmt.Errorf("EvictToSize(%d) left %d", budget, p.TotalVSize())
				}
			}
			if err == nil {
				err = s.check(p, evicted)
			}
			if err != nil {
				t.Fatalf("seed %d op %d (%s): %v", seed, i, op, err)
			}
		}
		// Entries is in first-seen order.
		entries := p.Entries()
		for i := 1; i < len(entries); i++ {
			if entries[i].FirstSeen.Before(entries[i-1].FirstSeen) {
				t.Fatalf("seed %d: Entries out of first-seen order at %d", seed, i)
			}
		}
	}
}

// TestAncestryConsistencyProperty builds random chains of dependent
// transactions and verifies parent/child links stay symmetric through
// removals.
func TestAncestryConsistencyProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, rawN uint8) bool {
		rng := stats.NewRNG(seed)
		p := New(WithMinFeeRate(0))
		n := int(rawN%30) + 5
		var pool []*chain.Tx
		for i := 0; i < n; i++ {
			var tx *chain.Tx
			if len(pool) > 0 && rng.Float64() < 0.5 {
				parent := pool[rng.Intn(len(pool))]
				if p.Contains(parent.ID) && p.spenders[chain.OutPoint{TxID: parent.ID, Index: 0}] == nil {
					tx = mkChild(parent, chain.Amount(rng.Intn(50_000)), int64(100+rng.Intn(400)))
				}
			}
			if tx == nil {
				tx = mkTx(chain.Amount(rng.Intn(50_000)), int64(100+rng.Intn(400)), byte(i))
				tx.Inputs[0].PrevOut.TxID = chain.TxID{byte(i), byte(seed >> 8), 0x55}
				tx.ComputeID()
			}
			if err := p.Add(tx, baseTime.Add(time.Duration(i)*time.Second)); err != nil {
				continue
			}
			pool = append(pool, tx)
		}
		check := func() bool {
			for _, e := range p.Entries() {
				for _, par := range e.Parents() {
					if !p.Contains(par.Tx.ID) {
						return false
					}
					found := false
					for _, ch := range par.Children() {
						if ch == e {
							found = true
						}
					}
					if !found {
						return false
					}
				}
				for _, ch := range e.Children() {
					found := false
					for _, par := range ch.Parents() {
						if par == e {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
			return true
		}
		if !check() {
			return false
		}
		// Remove half and re-check.
		entries := p.Entries()
		for i, e := range entries {
			if i%2 == 0 {
				p.Remove(e.Tx.ID)
			}
		}
		return check()
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

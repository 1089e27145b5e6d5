package norms

import (
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/gbt"
	"chainaudit/internal/mempool"
	"chainaudit/internal/stats"
)

// randomCPFPEntries fills a pool with roots and children of pending
// transactions, first seen over ten hours so aging credit varies.
func randomCPFPEntries(rng *stats.RNG, trial, n int) []*mempool.Entry {
	p := mempool.New(mempool.WithMinFeeRate(0))
	var pending []*chain.Tx
	for i := 0; i < n; i++ {
		vsize := int64(100 + rng.Intn(900))
		fee := chain.Amount(rng.Intn(20)) * chain.Amount(vsize)
		tx := &chain.Tx{VSize: vsize, Fee: fee, Time: baseTime}
		if len(pending) > 0 && rng.Float64() < 0.4 {
			par := pending[rng.Intn(len(pending))]
			k := rng.Intn(len(par.Outputs))
			tx.Inputs = []chain.TxIn{{
				PrevOut: chain.OutPoint{TxID: par.ID, Index: uint32(k)},
				Address: par.Outputs[k].Address,
				Value:   par.Outputs[k].Value,
			}}
		} else {
			tx.Inputs = []chain.TxIn{{
				PrevOut: chain.OutPoint{TxID: chain.TxID{byte(trial), 0xC4}, Index: uint32(i)},
				Address: "from",
				Value:   chain.Amount(1+rng.Intn(500)) * chain.BTC / 10,
			}}
		}
		rest := tx.Inputs[0].Value - fee
		if rest <= 0 {
			continue
		}
		tx.Outputs = []chain.TxOut{{Address: "to", Value: rest / 2}, {Address: "change", Value: rest - rest/2}}
		tx.ComputeID()
		if err := p.Add(tx, baseTime.Add(time.Duration(rng.Intn(600))*time.Minute)); err != nil {
			continue // a second spend of the same output
		}
		pending = append(pending, tx)
	}
	return p.Entries()
}

// TestNormsIgnoreEntryOrder checks that a shuffled mempool view yields the
// same template under every norm, at tight and loose capacities: like the
// gbt policies, the norms rank by (score, TxID), so the simulator may hand
// them the pool unsorted.
func TestNormsIgnoreEntryOrder(t *testing.T) {
	rng := stats.NewRNG(6)
	norms := []gbt.Policy{
		FeeRateWithAging{AgingRate: 1},
		FeeRateWithAging{AgingRate: 2, Now: baseTime.Add(12 * time.Hour)},
		ValueDensity{},
	}
	for trial := 0; trial < 30; trial++ {
		entries := randomCPFPEntries(rng, trial, 20+rng.Intn(150))
		var total int64
		for _, e := range entries {
			total += e.Tx.VSize
		}
		shuffled := append([]*mempool.Entry(nil), entries...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, capacity := range []int64{0, 99, 100, 1000, total / 3, total, total + 1} {
			for _, pol := range norms {
				want := pol.Build(entries, capacity)
				got := pol.Build(shuffled, capacity)
				if got.TotalFee != want.TotalFee || got.VSize != want.VSize || len(got.Txs) != len(want.Txs) {
					t.Fatalf("trial %d: %s at capacity %d: shuffled template %d txs / %d vB, sorted %d txs / %d vB",
						trial, pol.Name(), capacity, len(got.Txs), got.VSize, len(want.Txs), want.VSize)
				}
				for i := range want.Txs {
					if got.Txs[i].ID != want.Txs[i].ID {
						t.Fatalf("trial %d: %s at capacity %d: tx %d differs", trial, pol.Name(), capacity, i)
					}
				}
			}
		}
	}
}

package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/sim"
)

// The simulator's output is pinned here so a performance change to the
// mempool, the template builders or the event loop cannot shift a single
// byte unnoticed. The expected values were recorded before the simulator
// gained its running vsize total and early-stopping template builders; a
// legitimate behaviour change must re-record them and say why.

// chainPin is what a simulated chain must reproduce: the sha256 of its
// WriteChainCSV bytes plus its block and transaction counts.
type chainPin struct {
	csvSHA256 string
	blocks    int
	txs       int64
}

func pinChain(t *testing.T, c *chain.Chain) chainPin {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChainCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return chainPin{csvSHA256: hex.EncodeToString(sum[:]), blocks: c.Len(), txs: c.TxCount()}
}

// observerSHA256 hashes what an observer recorded through the simulator's
// receive path: every snapshot summary's Count and TotalVSize in stream
// order, then every Seen entry's congestion stamp in TxID order.
func observerSHA256(od *sim.ObserverData) string {
	h := sha256.New()
	var word [8]byte
	put := func(v int64) {
		binary.BigEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	put(int64(len(od.Summaries)))
	for _, s := range od.Summaries {
		put(int64(s.Count))
		put(s.TotalVSize)
	}
	ids := make([]chain.TxID, 0, len(od.Seen))
	for id := range od.Seen {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b chain.TxID) int { return bytes.Compare(a[:], b[:]) })
	put(int64(len(ids)))
	for _, id := range ids {
		h.Write(id[:])
		put(int64(od.Seen[id].Congestion))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSimOutputPinnedC pins data set C at the benchmark's reference
// scenario (seed 3, 8 h, 50 kvB blocks): a congested chain-only run that
// exercises the miner mempool, RBF, acceleration and every template path.
func TestSimOutputPinnedC(t *testing.T) {
	ds, err := BuildC(Options{Seed: 3, Duration: 8 * time.Hour, BlockCapacity: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	want := chainPin{
		csvSHA256: "c0e3f39489c1ec22e5df80bb837d3a53863b8aa2a33eceff6493587b0a0c6ab8",
		blocks:    44,
		txs:       6881,
	}
	if got := pinChain(t, ds.Result.Chain); got != want {
		t.Errorf("set C (seed 3, 8h, 50 kvB) drifted:\n got %+v\nwant %+v", got, want)
	}
}

// TestSimOutputPinnedA pins the observer-bearing set A build the package's
// other tests share. Set C has no observer, so this is the pin on the
// receive path: per-observer pool accounting, congestion stamps and
// snapshot summaries.
func TestSimOutputPinnedA(t *testing.T) {
	ds := getA(t)
	want := chainPin{
		csvSHA256: "7ed5be478cd29879629c3446808d9dea5cb99c47f8abe51da80ac9bd14c3db66",
		blocks:    43,
		txs:       13013,
	}
	if got := pinChain(t, ds.Result.Chain); got != want {
		t.Errorf("set A (seed 1, 6h) chain drifted:\n got %+v\nwant %+v", got, want)
	}
	const wantObs = "347b4cce4c1886637d1da0049660d44e5e7397f7a826268ec20b2a6868179688"
	if got := observerSHA256(ds.Result.Observer("A")); got != wantObs {
		t.Errorf("set A (seed 1, 6h) observer record drifted:\n got %s\nwant %s", got, wantObs)
	}
}

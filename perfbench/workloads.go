package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/core"
	"chainaudit/internal/dataset"
	"chainaudit/internal/index"
	"chainaudit/internal/observer"
	"chainaudit/internal/stats"
)

// tally counts operations and failures across goroutines. A failure is a
// non-2xx response, a transport error or a failed output check; the first
// few are kept for the log.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	notes             []string
}

func (t *tally) attempt() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// run is the state one benchmark process shares across its phases.
type run struct {
	cfg    config
	tr     *tracer
	tally  *tally
	env    *env
	client *http.Client
	// pool is the darkfee audit's pool: the static chain's top pool by share.
	pool string
	// seen1/seen2 are the two observation sources of the batch divergence
	// audit: s1 sees each transaction at its own time plus seeded jitter,
	// s2 is the planted laggard at +3 s plus its own jitter.
	seen1, seen2 map[chain.TxID]time.Time
	mempoolPeak  int
	// s holds the layer samples of the current phase.
	s samples
	// streamed lists the data sets the window's feeders filled completely.
	streamed []string
	// sets numbers the streaming data sets, unique across the run's windows.
	sets atomic.Int64
	// acked counts ingest acks across feeders, for the ack budget.
	acked    atomic.Int64
	panicked atomic.Bool
}

// goSafe runs f on a new goroutine tracked by wg. A panic there is recorded
// as the run's error instead of killing the process before it cleans up.
func (r *run) goSafe(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				r.tally.fail("panic: %v", p)
				r.panicked.Store(true)
			}
		}()
		f()
	}()
}

// samples are one phase's layer measurements, in milliseconds unless named
// otherwise.
type samples struct {
	ms        map[string][]float64 // durations by span name
	builds    []float64            // BuildC wall, seconds
	simRates  []float64            // committed txs per BuildC second
	simAllocs []float64            // heap allocations per committed tx
	divAllocs []float64
	acks      []float64            // every ingest ack, emit to ack
	byKind    map[string][]float64 // every reader request by kind, from due time
	late      []float64            // reader lateness behind schedule
	offered   float64              // the first reader's measured dispatch rate
	// audits counts audit requests sent, the cache-hit ratio's base. Audits
	// are only ever sent from one goroutine at a time.
	audits int
}

func newSamples() samples {
	return samples{ms: make(map[string][]float64), byKind: make(map[string][]float64)}
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, tally: &tally{}, s: newSamples()}
}

// prepare derives the seed's observation ledger and the audit parameters
// from the set-up chain. It runs after set-up and before any measurement.
func (r *run) prepare() {
	c := r.env.chain
	rng := stats.NewRNG(r.cfg.seed)
	r.seen1 = make(map[chain.TxID]time.Time)
	r.seen2 = make(map[chain.TxID]time.Time)
	for _, b := range c.Blocks() {
		for _, tx := range b.Body() {
			j1 := time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
			j2 := time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
			r.seen1[tx.ID] = tx.Time.Add(j1)
			r.seen2[tx.ID] = tx.Time.Add(3*time.Second + j2)
		}
	}
	ix := index.Build(c, r.env.ds.Registry)
	if top := ix.TopPoolsByShare(0); len(top) > 0 {
		r.pool = top[0]
	}
	r.mempoolPeak = mempoolPeak(c)
}

// mempoolPeak is the simulated working set: the most transactions that had
// arrived and were still unconfirmed when a block was mined. Data set C runs
// no observer node, so it is read off the chain (committed transactions
// only, a lower bound on the simulator's mempool).
func mempoolPeak(c *chain.Chain) int {
	blocks := c.Blocks()
	peak := 0
	for k, b := range blocks {
		pending := 0
		for _, later := range blocks[k:] {
			for _, tx := range later.Body() {
				if !tx.Time.After(b.Time) {
					pending++
				}
			}
		}
		peak = max(peak, pending)
	}
	return peak
}

// build simulates the scenario once and checks it against its pinned counts
// and the set-up's CSV bytes.
func (r *run) build() error {
	r.tally.attempt()
	sc := reference
	var m0, m1 runtimeAllocs
	m0.read()
	sp := r.tr.begin("sim.BuildC", 0, 0)
	t0 := time.Now()
	ds, err := dataset.BuildC(sc.options())
	d := time.Since(t0)
	sp.end()
	m1.read()
	if err != nil {
		r.tally.fail("simulate: %v", err)
		return err
	}
	c := ds.Result.Chain
	r.recordBuild(d, c.TxCount(), uint64(m1-m0))
	if c.Len() != sc.blocks || c.TxCount() != sc.txs {
		r.tally.fail("scenario seed %d gave %d blocks / %d txs, want %d / %d", sc.seed, c.Len(), c.TxCount(), sc.blocks, sc.txs)
	}
	var buf bytes.Buffer
	r.timed("dataset.WriteChainCSV", 0, func() { err = dataset.WriteChainCSV(&buf, c) })
	if err != nil {
		r.tally.fail("write csv: %v", err)
		return err
	}
	if !bytes.Equal(buf.Bytes(), r.env.csv) {
		r.tally.fail("rebuilt chain CSV differs from the set-up's")
	}
	return nil
}

func (r *run) recordBuild(d time.Duration, txs int64, allocs uint64) {
	r.s.builds = append(r.s.builds, d.Seconds())
	r.s.simRates = append(r.s.simRates, float64(txs)/d.Seconds())
	r.s.simAllocs = append(r.s.simAllocs, float64(allocs)/float64(txs))
}

// roundTrip checks that the CSV decodes and re-encodes byte-identically.
func (r *run) roundTrip() {
	r.tally.attempt()
	c, err := dataset.ReadChainCSV(bytes.NewReader(r.env.csv))
	if err != nil {
		r.tally.fail("read csv: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := dataset.WriteChainCSV(&buf, c); err != nil {
		r.tally.fail("re-encode csv: %v", err)
		return
	}
	if !bytes.Equal(buf.Bytes(), r.env.csv) {
		r.tally.fail("CSV round trip is not byte-identical")
	}
}

// timed runs f inside a span and records its duration under the span name.
func (r *run) timed(name string, parent uint64, f func()) {
	sp := r.tr.begin(name, parent, 0)
	t0 := time.Now()
	f()
	r.s.ms[name] = append(r.s.ms[name], ms(time.Since(t0)))
	sp.end()
}

// tail is the batch research sequence over the CSV: read it, index it, run
// the five full-chain audits, then the two-source divergence audit. It
// returns the PPE and low-fee sections as rendered text, the reference the
// streamed sets are compared against.
func (r *run) tail() (ppeText, lowText string) {
	r.tally.attempt()
	root := r.tr.begin("tail", 0, 0)
	t0 := time.Now()
	var (
		c   *chain.Chain
		err error
		ix  *index.BlockIndex
	)
	r.timed("dataset.ReadChainCSV", root.id(), func() { c, err = dataset.ReadChainCSV(bytes.NewReader(r.env.csv)) })
	if err != nil {
		root.end()
		r.tally.fail("read csv: %v", err)
		return "", ""
	}
	r.timed("index.Build", root.id(), func() { ix = index.Build(c, r.env.ds.Registry) })
	aud := core.NewIndexedAuditor(ix)
	opts := core.AuditOptions{}
	var (
		ppe   core.PPEReport
		siErr error
		scErr error
		lows  []core.LowFeeConfirmation
	)
	r.timed("core.AuditPPE", root.id(), func() { ppe = aud.AuditPPE(opts) })
	r.timed("core.AuditSelfInterest", root.id(), func() { _, siErr = aud.AuditSelfInterest(opts) })
	r.timed("core.AuditScam", root.id(), func() {
		_, scErr = aud.AuditScam(core.TouchingAddress(c, r.env.ds.Result.Truth.ScamWallet), opts)
	})
	r.timed("core.AuditLowFee", root.id(), func() { lows = aud.AuditLowFee(opts) })
	r.timed("core.AuditDarkFee", root.id(), func() { aud.AuditDarkFee(r.pool, opts) })
	r.timed("index.ObserveFirstSeenFrom", root.id(), func() {
		ix.ObserveFirstSeenFrom("s1", r.seen1)
		ix.ObserveFirstSeenFrom("s2", r.seen2)
	})
	var m0, m1 runtimeAllocs
	m0.read()
	var div *core.DivergenceReport
	r.timed("core.DivergenceAudit", root.id(), func() {
		div = core.DivergenceAudit(ix.SourceSeenTimes(), core.DivergenceOptions{})
	})
	m1.read()
	r.s.ms["tail"] = append(r.s.ms["tail"], ms(time.Since(t0)))
	root.end()
	r.s.divAllocs = append(r.s.divAllocs, float64(m1-m0))

	switch {
	case siErr != nil:
		r.tally.fail("self-interest audit: %v", siErr)
	case scErr != nil:
		r.tally.fail("scam audit: %v", scErr)
	case ppe.Overall.N == 0:
		r.tally.fail("PPE audit saw no blocks")
	}
	if f := div.FlaggedSources(); len(f) != 1 || f[0] != "s2" {
		r.tally.fail("divergence flagged %v, want exactly [s2]", f)
	}
	var pb, lb strings.Builder
	if err := core.WritePPESection(&pb, ppe); err != nil {
		r.tally.fail("render ppe: %v", err)
	}
	if err := core.WriteLowFeeSection(&lb, lows); err != nil {
		r.tally.fail("render lowfee: %v", err)
	}
	return pb.String(), lb.String()
}

// simBatch is the sim_batch window: simulate the scenario, check it, and run
// the research tail over it, until the window closes. Each simulation is
// followed by tailsPerBuild tails, enough for a p90 over the window.
func (r *run) simBatch(ctx context.Context, deadline time.Time) windowStats {
	const tailsPerBuild = 20
	firstTail := len(r.s.ms["tail"])
	firstBuild := len(r.s.simRates)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if r.build() != nil {
			break
		}
		r.roundTrip()
		for i := 0; i < tailsPerBuild && ctx.Err() == nil; i++ {
			r.tail()
		}
	}
	return windowStats{rateSamples: r.s.simRates[firstBuild:], latency: r.s.ms["tail"][firstTail:], tailQ: 0.90}
}

// windowStats is what one measured window yields for the end-to-end
// metrics: the rate (the median of per-build or per-round rates) and the
// primary latency samples with the quantile their tail is read at.
type windowStats struct {
	rateSamples []float64
	latency     []float64
	tailQ       float64
	acks        []float64 // ingest ack latencies (ms)
}

func (w windowStats) rate() float64 { return median(w.rateSamples) }

// feeder is one closed-loop observer: it replays the chain through
// observer.Run and an HTTPSink into successive fresh streaming data sets,
// one block per request.
type feeder struct {
	r      *run
	source string
	prefix string
	// current names the data set being ingested once it exists.
	current   atomic.Pointer[string]
	acks      []float64
	completed []string
}

// untilSource ends a replay once the window closes.
type untilSource struct {
	src  observer.Source
	stop func() bool
}

func (s *untilSource) Next(ctx context.Context) (observer.Event, error) {
	if s.stop() {
		return observer.Event{}, io.EOF
	}
	return s.src.Next(ctx)
}

// ackSink wraps the HTTPSink to time each Sink.Apply (emit to ack) and to
// check each ack.
type ackSink struct {
	f      *feeder
	sink   *observer.HTTPSink
	parent uint64
}

func (a *ackSink) Apply(ctx context.Context, b *observer.Batch) error {
	r := a.f.r
	r.tally.attempt()
	sp := r.tr.begin("observer.Sink.Apply", a.parent, r.tr.newReq())
	t0 := time.Now()
	err := a.sink.Apply(ctx, b)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		if ctx.Err() == nil {
			r.tally.fail("ingest %s: %v", a.sink.Dataset, err)
		}
		return err
	}
	if a.sink.Last.Appended != len(b.Blocks) {
		r.tally.fail("ingest %s: ack appended %d blocks, sent %d", a.sink.Dataset, a.sink.Last.Appended, len(b.Blocks))
		return fmt.Errorf("short append")
	}
	a.f.acks = append(a.f.acks, ms(d))
	r.acked.Add(1)
	if cur := a.f.current.Load(); cur == nil || *cur != a.sink.Dataset {
		name := a.sink.Dataset
		a.f.current.Store(&name)
	}
	return nil
}

// feed replays the chain into fresh data sets until stop reports true (or,
// with sets > 0, for that many full replays). Each finished data set's index
// length must equal the blocks sent to it.
func (f *feeder) feed(ctx context.Context, stop func() bool, sets int) {
	r := f.r
	for n := 0; (sets == 0 || n < sets) && !stop() && ctx.Err() == nil; n++ {
		name := fmt.Sprintf("%s-%d", f.prefix, r.sets.Add(1))
		sink := &observer.HTTPSink{URL: r.env.url, Dataset: name, Source: f.source, Client: r.client, Seed: r.cfg.seed}
		sp := r.tr.begin("observer.Run", 0, 0)
		st, err := observer.Run(ctx, &untilSource{src: observer.NewChainSource(r.env.chain), stop: stop},
			&ackSink{f: f, sink: sink, parent: sp.id()}, observer.Config{BatchBlocks: 1})
		sp.end()
		if err != nil {
			continue // counted by the ack that failed
		}
		if st.Blocks > 0 && sink.Last.IndexLen != st.Blocks {
			r.tally.fail("data set %s: index_len %d after %d blocks", name, sink.Last.IndexLen, st.Blocks)
		}
		if st.Blocks == r.env.chain.Len() {
			f.completed = append(f.completed, name)
		}
	}
}

// auditKinds is the reader's request cycle: the full-chain audits and the
// window=32 variants.
func (r *run) auditKinds() []struct{ label, path string } {
	return []struct{ label, path string }{
		{"ppe", "ppe?"},
		{"lowfee", "lowfee?"},
		{"selfinterest", "selfinterest?"},
		{"darkfee", "darkfee?pool=" + url.QueryEscape(r.pool) + "&"},
		{"divergence", "divergence?"},
		{"ppe_w32", "ppe?window=32&"},
		{"lowfee_w32", "lowfee?window=32&"},
		{"darkfee_w32", "darkfee?window=32&pool=" + url.QueryEscape(r.pool) + "&"},
	}
}

// audit POSTs one audit request and checks the response envelope.
func (r *run) audit(ctx context.Context, path, dataset string, parent uint64) error {
	r.tally.attempt()
	r.s.audits++
	sp := r.tr.begin("http.audit", parent, r.tr.newReq())
	defer sp.end()
	kind := path[:strings.IndexByte(path, '?')]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.env.url+"/v1/audits/"+path+"dataset="+dataset, nil)
	if err != nil {
		r.tally.fail("audit %s: %v", kind, err)
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.tally.fail("audit %s on %s: %v", kind, dataset, err)
		}
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := `{"api":"chainaudit.serve/v1","kind":"audit","name":"` + kind + `","dataset":"` + dataset + `"`
	switch {
	case err != nil:
		r.tally.fail("audit %s on %s: read body: %v", kind, dataset, err)
	case resp.StatusCode != http.StatusOK:
		r.tally.fail("audit %s on %s: status %d: %.200s", kind, dataset, resp.StatusCode, body)
		err = fmt.Errorf("status %d", resp.StatusCode)
	case !bytes.HasPrefix(body, []byte(want)):
		r.tally.fail("audit %s on %s: unexpected envelope %.120s", kind, dataset, body)
		err = fmt.Errorf("bad envelope")
	}
	return err
}

// reader runs the open-loop audit schedule: count requests rps apart. Two of
// every three go to the set f is ingesting (to "main" until f's first ack),
// every third to the static set "main". Streamed requests always miss the
// cache and static ones hit it, so at one-to-one the median would sit on the
// boundary between those two modes and jump between them from run to run.
// The seed picks where in the kind cycle the reader starts. It returns the
// due-time latencies (ms) and records them by kind.
func (r *run) reader(ctx context.Context, f *feeder, rps float64, count int) []float64 {
	if count <= 0 {
		return nil
	}
	kinds := r.auditKinds()
	offset := int(r.cfg.seed % uint64(len(kinds)))
	labels := make([]string, count)
	sp := r.tr.begin("loadgen", 0, 0)
	defer sp.end()
	lg := openLoop{start: time.Now().Add(10 * time.Millisecond), interval: time.Duration(float64(time.Second) / rps), count: count}
	res := lg.run(ctx, func(ctx context.Context, i int) error {
		k := kinds[(i/3+offset)%len(kinds)]
		labels[i] = k.label
		target := "main"
		if cur := f.current.Load(); i%3 != 2 && cur != nil {
			target = *cur
		}
		return r.audit(ctx, k.path, target, sp.id())
	})
	lat := make([]float64, 0, len(res))
	var first, last time.Time
	for i, lr := range res {
		lat = append(lat, ms(lr.latency))
		r.s.byKind[labels[lr.index]] = append(r.s.byKind[labels[lr.index]], ms(lr.latency))
		r.s.late = append(r.s.late, ms(lr.late))
		sent := lg.start.Add(time.Duration(lr.index)*lg.interval + lr.late)
		if i == 0 {
			first = sent
		}
		last = sent
	}
	if r.s.offered == 0 && len(res) > 1 {
		r.s.offered = float64(len(res)-1) / last.Sub(first).Seconds()
	}
	return lat
}

// roundAcks is how many acks one round of an ingest window takes before
// the engine is restarted (the restart is not timed). The engine keeps every
// streamed data set in memory, about 0.6 MB resident per acked block here,
// so rounds are what keep a run's memory bounded however long the window;
// small rounds also keep the garbage collector's work per round small.
const roundAcks = 250

// rounds runs round until the deadline, restarting the engine between
// rounds and running warm (if set) untimed before each. Each round reports
// the acks it took; the window's rate is the median over the rounds that
// ran to their full size (full says which), which a burst of interference
// in one round does not move.
func (r *run) rounds(ctx context.Context, deadline time.Time, warm func(), full func(acks int) bool, round func() int) []float64 {
	var rates []float64
	for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
		if n > 0 {
			if err := r.env.restart(); err != nil {
				r.tally.fail("restart engine: %v", err)
				break
			}
		}
		r.streamed = nil // the restart dropped them
		if warm != nil {
			warm()
		}
		start := time.Now()
		acks := round()
		if full(acks) {
			rates = append(rates, float64(acks)/time.Since(start).Seconds())
		}
	}
	return rates
}

// liveIngest is the live_ingest window: two closed-loop feeders, attributed
// as s1 and s2, each replaying into their own successive data sets; a round
// ends after roundAcks acks.
func (r *run) liveIngest(ctx context.Context, deadline time.Time) windowStats {
	ws := windowStats{tailQ: 0.99}
	full := func(acks int) bool { return acks >= roundAcks }
	ws.rateSamples = r.rounds(ctx, deadline, nil, full, func() int {
		base := r.acked.Load()
		stop := func() bool { return r.acked.Load()-base >= roundAcks || !time.Now().Before(deadline) }
		feeders := []*feeder{
			{r: r, source: "s1", prefix: "live-s1"},
			{r: r, source: "s2", prefix: "live-s2"},
		}
		var wg sync.WaitGroup
		for _, f := range feeders {
			f := f
			r.goSafe(&wg, func() { f.feed(ctx, stop, 0) })
		}
		wg.Wait()
		acks := 0
		for _, f := range feeders {
			acks += len(f.acks)
			ws.acks = append(ws.acks, f.acks...)
			r.s.acks = append(r.s.acks, f.acks...)
			r.streamed = append(r.streamed, f.completed...)
		}
		return acks
	})
	ws.latency = ws.acks
	return ws
}

// mixRate is the reader's offered rate on ingest_audit_mix, requests per
// second. The reader's one connection is then busy about 40% of the time:
// divergence misses on the streamed set take tens of milliseconds, and at
// higher rates the queue behind them turns any slowdown of the machine into
// a much larger one in the tail.
const mixRate = 100

// mixRoundAudits is the reader's requests per ingest_audit_mix round: 2 s
// at mixRate, in which the feeder acks about 450 blocks.
const mixRoundAudits = 200

// ingestAuditMix is the ingest_audit_mix window: one closed-loop feeder (s1)
// beside one open-loop reader at mixRate. A round ends when the reader has
// sent mixRoundAudits requests; the feeder stops with it.
func (r *run) ingestAuditMix(ctx context.Context, deadline time.Time) windowStats {
	ws := windowStats{tailQ: 0.99}
	var sent int // the current round's reader requests
	full := func(int) bool { return sent == mixRoundAudits }
	// A fresh engine's first audit of each kind on the static set fills the
	// cache and, for the window kinds, replays the static index into a
	// window auditor; that is start-up work, so it is done before timing.
	warm := func() {
		for _, k := range r.auditKinds() {
			_ = r.audit(ctx, k.path, "main", 0) // a failure is tallied
		}
	}
	ws.rateSamples = r.rounds(ctx, deadline, warm, full, func() int {
		f := &feeder{r: r, source: "s1", prefix: "mix-s1"}
		var done atomic.Bool
		var wg sync.WaitGroup
		r.goSafe(&wg, func() { f.feed(ctx, func() bool { return done.Load() || !time.Now().Before(deadline) }, 0) })
		sent = min(mixRoundAudits, int(time.Until(deadline).Seconds()*mixRate))
		ws.latency = append(ws.latency, r.reader(ctx, f, mixRate, sent)...)
		done.Store(true)
		wg.Wait()
		ws.acks = append(ws.acks, f.acks...)
		r.s.acks = append(r.s.acks, f.acks...)
		r.streamed = append(r.streamed, f.completed...)
		return len(f.acks)
	})
	return ws
}

// Command perfbench is chainaudit's system benchmark. One run simulates the
// reference chain, starts chainauditd's engine over it on a loopback port,
// drives one workload against it for a fixed window, checks every output,
// and prints one JSON result line. See README.md for the workloads and
// metrics; run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload live_ingest --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"chainaudit/internal/obs"
)

// workloads are the benchmark's traffic mixes (README.md says why each).
var workloads = []string{"sim_batch", "live_ingest", "ingest_audit_mix"}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workDir holds the run's temporary directory and the trace output.
	workDir string
	// ready, when set, is called once the measured service is serving, with
	// its address and the run's temporary directory (tests use it).
	ready func(addr, tmp string)
}

const (
	// setups is how many times a run sets up; setup_s is their median.
	setups = 5
	// runLimit bounds a whole run; past it the run aborts and cleans up.
	runLimit = 170 * time.Second
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := execute(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for temporary files and trace output")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	switch {
	case !known:
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	case cfg.seconds <= 0:
		return cfg, fmt.Errorf("--seconds must be positive")
	case *traceFlag != 0 && *traceFlag != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = *traceFlag == 1
	return cfg, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload end to end. Whatever way it ends — success,
// error, panic, SIGINT/SIGTERM, the run limit or the memory guard — the
// listener is shut down, then the service is closed, then the temporary
// directory removed, before it returns. It starts no processes.
func execute(parent context.Context, cfg config, log io.Writer) (res *result, err error) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeoutCause(ctx, runLimit, errors.New("run limit reached"))
	defer cancel()
	ctx, guardDone := guardMemory(ctx)
	defer guardDone()
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
			res, err = nil, rerr
		}
	}()

	r := newRun(cfg)
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer transport.CloseIdleConnections()
	r.client = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	defer func() {
		if cerr := r.env.stop(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()
	// Registered last, so it runs first: a panic becomes an error after
	// which the deferred shutdowns above still run in order.
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()

	setupS, err := r.setUp(ctx, tmp)
	if err != nil {
		return nil, err
	}
	if cfg.ready != nil {
		cfg.ready(r.env.addr(), tmp)
	}
	r.prepare()
	window := func() windowStats {
		deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		switch cfg.workload {
		case "sim_batch":
			return r.simBatch(ctx, deadline)
		case "live_ingest":
			return r.liveIngest(ctx, deadline)
		default:
			return r.ingestAuditMix(ctx, deadline)
		}
	}
	plain := window()

	// A traced run measures a second, traced phase on a fresh set-up (so the
	// first window's streamed sets are released) and reports the per-layer
	// view of that phase alone: set-up, window and verification pass.
	var (
		traced     windowStats
		tr         *tracer
		traceBase  string
		before     obs.Snapshot
		mem0, mem1 runtime.MemStats
	)
	if cfg.trace && ctx.Err() == nil {
		if err := r.env.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(r.env.dir); err != nil {
			return nil, err
		}
		if traceBase, err = traceOutput(cfg); err != nil {
			return nil, err
		}
		stopProfile, perr := startProfile(traceBase + ".cpu.pprof")
		if perr != nil {
			return nil, perr
		}
		defer func() {
			if perr := stopProfile(); perr != nil && err == nil {
				res, err = nil, perr
			}
		}()
		tr = newTracer()
		r.tr, r.s = tr, newSamples()
		before = obs.Default.Snapshot()
		runtime.ReadMemStats(&mem0)
		e, st, serr := setup(tr, filepath.Join(tmp, "traced"))
		if serr != nil {
			return nil, serr
		}
		r.env = e
		r.recordSetup(e, st)
		traced = window()
	}
	if ctx.Err() == nil {
		r.verify(ctx)
	}
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("run aborted: %w", err)
	}
	if r.panicked.Load() {
		return nil, fmt.Errorf("a load goroutine panicked: %v", r.tally.notes)
	}

	// Tear down before reading the high-water mark, so the figure covers
	// the whole run, shutdown included.
	if err := r.env.stop(); err != nil {
		return nil, err
	}
	transport.CloseIdleConnections()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak rss: %w", err)
	}
	res = &result{Attempted: r.tally.attempted.Load(), Failed: r.tally.failed.Load(), Metrics: map[string]metricValue{}}
	e2e, err := endToEndValues(plain, setupS, rss)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		runtime.ReadMemStats(&mem1)
		tracedE2E, err := endToEndValues(traced, setupS, rss)
		if err != nil {
			return nil, fmt.Errorf("traced window: %w", err)
		}
		vals := r.layerValues(registryDiff{before, obs.Default.Snapshot()}, mem0, mem1, e2e, tracedE2E)
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		if err := tr.write(traceBase + ".spans.jsonl"); err != nil {
			return nil, err
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	}
	res.Correct = res.Failed == 0
	r.summarize(log, plain, setupS, rss)
	return res, nil
}

// traceOutput returns the path stem of a traced run's span and profile files.
func traceOutput(cfg config) (string, error) {
	dir := filepath.Join(cfg.workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)), nil
}

// startProfile starts a CPU profile into path; the returned function stops
// it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// heapLimit is the live-heap size at which a run aborts. Normal runs stay
// well under half of it; the guard keeps a regression that bloats the
// service from taking a shared machine's memory with it.
const heapLimit = 2 << 30

// guardMemory cancels ctx if the live heap passes heapLimit. The returned
// function stops the guard and waits for it to exit.
func guardMemory(parent context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(parent)
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > heapLimit {
					cancel(fmt.Errorf("heap reached %d MB, over the %d MB guard", v>>20, heapLimit>>20))
					return
				}
			}
		}
	}()
	return ctx, func() {
		close(done)
		<-stopped
		cancel(nil)
	}
}

// setUp runs the set-up setups times, keeping the last service and
// closing the others, and returns each set-up's wall time in seconds. Every
// set-up must produce the scenario's pinned counts and the same CSV bytes.
func (r *run) setUp(ctx context.Context, tmp string) ([]float64, error) {
	var times []float64
	for i := 0; i < setups; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e, st, err := setup(r.tr, filepath.Join(tmp, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		times = append(times, st.total.Seconds())
		if r.env != nil && string(r.env.csv) != string(e.csv) {
			r.tally.fail("set-up %d built a different chain CSV", i)
		}
		r.recordSetup(e, st)
		if i < setups-1 {
			if err := e.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
		}
		r.env = e
	}
	return times, nil
}

// recordSetup records a set-up's layer samples and checks its chain
// against the scenario's pinned counts.
func (r *run) recordSetup(e *env, st setupStats) {
	r.recordBuild(st.build, e.chain.TxCount(), st.allocs)
	r.s.ms["dataset.WriteChainCSV"] = append(r.s.ms["dataset.WriteChainCSV"], ms(st.csvWrite))
	r.tally.attempt()
	sc := reference
	if e.chain.Len() != sc.blocks || e.chain.TxCount() != sc.txs {
		r.tally.fail("scenario seed %d gave %d blocks / %d txs, want %d / %d", sc.seed, e.chain.Len(), e.chain.TxCount(), sc.blocks, sc.txs)
	}
}

// verifyRounds is how many times the verification reader cycles through
// every audit kind on its targets: 30 samples per kind.
const verifyRounds = 10

// verify is the checking pass every workload ends with. It runs the batch
// tail for the reference texts, replays the chain once into a fresh
// streamed set, reads every audit kind from it and from the static set, and
// requires the full-chain PPE and low-fee text of each streamed set to be
// byte-identical to the static set's and to the batch rendering.
func (r *run) verify(ctx context.Context) {
	var ppeText, lowText string
	for i := 0; i < 5; i++ {
		ppeText, lowText = r.tail()
	}
	r.roundTrip()
	f := &feeder{r: r, source: "s1", prefix: "verify"}
	f.feed(ctx, func() bool { return false }, 1)
	r.tally.attempt()
	if len(f.completed) != 1 {
		r.tally.fail("verification replay did not complete")
		return
	}
	r.s.acks = append(r.s.acks, f.acks...)
	r.reader(ctx, f, mixRate, 3*len(auditLabels)*verifyRounds)
	sets := f.completed
	if n := len(r.streamed); n > 0 {
		sets = append(sets, r.streamed[n-1])
	}
	for _, want := range []struct{ kind, text string }{{"ppe", ppeText}, {"lowfee", lowText}} {
		static := r.text(ctx, want.kind, "main")
		if static != want.text {
			r.tally.fail("%s text of the static set differs from the batch rendering", want.kind)
		}
		for _, set := range sets {
			if got := r.text(ctx, want.kind, set); got != static {
				r.tally.fail("%s text of streamed set %s differs from the static set's", want.kind, set)
			}
		}
	}
}

// text fetches one full-chain audit as text.
func (r *run) text(ctx context.Context, kind, dataset string) string {
	r.tally.attempt()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.env.url+"/v1/audits/"+kind+"?format=text&dataset="+dataset, nil)
	if err != nil {
		r.tally.fail("text %s: %v", kind, err)
		return ""
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.tally.fail("text %s on %s: %v", kind, dataset, err)
		return ""
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		r.tally.fail("text %s on %s: status %d, %v", kind, dataset, resp.StatusCode, err)
		return ""
	}
	return string(body)
}

// endToEndValues turns a window into the end-to-end metrics. A percentile
// without enough samples beyond it fails the run rather than being guessed.
func endToEndValues(ws windowStats, setupS []float64, rss float64) (map[string]float64, error) {
	p50, err := percentile(ws.latency, 0.50)
	if err != nil {
		return nil, fmt.Errorf("p50: %w", err)
	}
	tail, err := chunkedPercentile(ws.latency, ws.tailQ)
	if err != nil {
		return nil, fmt.Errorf("tail: %w", err)
	}
	rate := ws.rate()
	if !(rate > 0) {
		return nil, errors.New("window completed no work")
	}
	return map[string]float64{
		"setup_s":     median(setupS),
		"peak_rss_mb": rss,
		"rate_per_s":  rate,
		"p50_ms":      p50,
		"tail_ms":     tail,
	}, nil
}

// summarize logs the run in the workload's own terms.
func (r *run) summarize(w io.Writer, ws windowStats, setupS []float64, rss float64) {
	fmt.Fprintf(w, "perfbench %s seed=%d: setup %.3fs (median of %d), peak rss %.1f MB, %d ops, %d failed\n",
		r.cfg.workload, r.cfg.seed, median(setupS), len(setupS), rss, r.tally.attempted.Load(), r.tally.failed.Load())
	report := func(name string, samples []float64, q float64) {
		if v, err := percentile(samples, q); err == nil {
			fmt.Fprintf(w, "  %-20s %10.3f ms  (n=%d)\n", name, v, len(samples))
		}
	}
	switch r.cfg.workload {
	case "sim_batch":
		fmt.Fprintf(w, "  %-20s %10.0f tx/s  (n=%d builds)\n", "sim_txs_per_s", ws.rate(), len(ws.rateSamples))
		report("batch_audit_ms p50", ws.latency, 0.5)
		report("batch_audit_ms p90", ws.latency, 0.9)
	default:
		fmt.Fprintf(w, "  %-20s %10.1f blocks/s  (n=%d acks)\n", "ingest_blocks_per_s", ws.rate(), len(ws.acks))
		report("ingest_ack_p50_ms", ws.acks, 0.5)
		report("ingest_ack_p99_ms", ws.acks, 0.99)
		if r.cfg.workload == "ingest_audit_mix" {
			report("audit_p50_ms", ws.latency, 0.5)
			report("audit_p99_ms", ws.latency, 0.99)
			fmt.Fprintf(w, "  %-20s %10.3f ms\n", "loadgen late max", maxOf(r.s.late))
		}
	}
	for _, n := range r.tally.notes {
		fmt.Fprintln(w, "  FAILED:", n)
	}
}

// layerValues computes the per-layer metrics of a traced run.
func (r *run) layerValues(d registryDiff, mem0, mem1 runtime.MemStats, e2e, tracedE2E map[string]float64) map[string]float64 {
	v := map[string]float64{}
	s := r.s
	buildS := 0.0
	for _, b := range s.builds {
		buildS += b
	}
	v["sim.build_s"] = median(s.builds)
	v["sim.events"] = d.counter("sim.events") / float64(len(s.builds))
	v["sim.events_per_s"] = d.counter("sim.events") / buildS
	v["sim.blocks"] = float64(r.env.chain.Len())
	v["sim.txs"] = float64(r.env.chain.TxCount())
	v["sim.mempool_peak_txs"] = float64(r.mempoolPeak)
	v["sim.allocs_per_tx"] = median(s.simAllocs)
	v["dataset.csv_write_ms"] = median(s.ms["dataset.WriteChainCSV"])
	v["dataset.csv_read_ms"] = median(s.ms["dataset.ReadChainCSV"])
	v["dataset.csv_bytes"] = float64(len(r.env.csv))
	v["index.build_ms"] = median(s.ms["index.Build"])
	v["index.append_count"] = d.timerCount("serve.ingest.append")
	v["index.append_total_ms"] = d.timerTotalMS("serve.ingest.append")
	for name, key := range map[string]string{
		"core.ppe_ms": "core.AuditPPE", "core.selfinterest_ms": "core.AuditSelfInterest",
		"core.scam_ms": "core.AuditScam", "core.lowfee_ms": "core.AuditLowFee",
		"core.darkfee_ms": "core.AuditDarkFee", "core.divergence_ms": "core.DivergenceAudit",
	} {
		v[name] = median(s.ms[key])
	}
	v["core.divergence_allocs"] = median(s.divAllocs)
	v["core.window_audit_total_ms"] = d.timerTotalMS("serve.window.audit")
	for _, l := range auditLabels {
		v["serve.audit_p50_ms."+l] = median(s.byKind[l])
	}
	if s.audits > 0 {
		v["serve.cache_hit_ratio"] = d.counter("serve.cache_hits") / float64(s.audits)
	}
	v["serve.ingest_rejects"] = d.counter("serve.ingest.rejects")
	v["serve.wal_appends"] = d.counter("serve.wal.appends")
	v["serve.wal_fsyncs"] = d.counter("serve.wal.fsyncs")
	if blocks := d.counter("serve.ingest.blocks"); blocks > 0 {
		v["serve.wal_bytes_per_block"] = d.counter("serve.wal.appended_bytes") / blocks
	}
	v["serve.wal_checkpoints"] = d.counter("serve.wal.checkpoints")
	v["observer.batches"] = d.counter("observer.batches")
	v["observer.retries"] = d.counter("observer.retries")
	v["observer.resends"] = d.counter("observer.resends")
	v["observer.apply_ms"] = median(s.acks)
	v["pipeline.tasks"] = d.counter("pipeline.tasks")
	v["pipeline.queue_wait_p50_ms"] = d.after.Timers["pipeline.queue_wait"].P50MS
	v["pipeline.busy_ms"] = d.counter("pipeline.busy_ns") / 1e6
	v["gc.cycles"] = float64(mem1.NumGC - mem0.NumGC)
	v["gc.pause_total_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	v["loadgen.offered_rps"] = s.offered
	v["loadgen.late_max_ms"] = maxOf(s.late)
	v["trace.overhead_pct.rate_per_s"] = 100 * (e2e["rate_per_s"] - tracedE2E["rate_per_s"]) / e2e["rate_per_s"]
	v["trace.overhead_pct.p50_ms"] = 100 * (tracedE2E["p50_ms"] - e2e["p50_ms"]) / e2e["p50_ms"]
	v["trace.overhead_pct.tail_ms"] = 100 * (tracedE2E["tail_ms"] - e2e["tail_ms"]) / e2e["tail_ms"]
	self := r.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v["trace.self_ms."+n] = self[n]
	}
	return v
}

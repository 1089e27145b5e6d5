package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"

	"chainaudit/internal/obs"
)

// metricDef is one metric of the catalogue BENCHMARK.json lists.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics. Every workload reports all of
// them; what "rate", "p50" and "tail" count depends on the workload (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"rate_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
}

// auditLabels are the reader's request kinds, in cycle order.
var auditLabels = []string{"ppe", "lowfee", "selfinterest", "darkfee", "divergence", "ppe_w32", "lowfee_w32", "darkfee_w32"}

// spanNames are the benchmark-side spans; each gets a self-time metric.
var spanNames = []string{
	"setup", "sim.BuildC", "dataset.WriteChainCSV", "serve.New", "listen",
	"tail", "dataset.ReadChainCSV", "index.Build", "core.AuditPPE", "core.AuditSelfInterest",
	"core.AuditScam", "core.AuditLowFee", "core.AuditDarkFee", "index.ObserveFirstSeenFrom",
	"core.DivergenceAudit", "observer.Run", "observer.Sink.Apply", "loadgen", "http.audit",
}

// perLayer are the traced run's metrics, grouped by layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.build_s", "s", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"sim.blocks", "count", "higher"},
		{"sim.txs", "count", "higher"},
		{"sim.mempool_peak_txs", "count", "lower"},
		{"sim.allocs_per_tx", "count", "lower"},
		{"dataset.csv_write_ms", "ms", "lower"},
		{"dataset.csv_read_ms", "ms", "lower"},
		{"dataset.csv_bytes", "B", "lower"},
		{"index.build_ms", "ms", "lower"},
		{"index.append_count", "count", "higher"},
		{"index.append_total_ms", "ms", "lower"},
		{"core.ppe_ms", "ms", "lower"},
		{"core.selfinterest_ms", "ms", "lower"},
		{"core.scam_ms", "ms", "lower"},
		{"core.lowfee_ms", "ms", "lower"},
		{"core.darkfee_ms", "ms", "lower"},
		{"core.divergence_ms", "ms", "lower"},
		{"core.divergence_allocs", "count", "lower"},
		{"core.window_audit_total_ms", "ms", "lower"},
	}
	for _, l := range auditLabels {
		defs = append(defs, metricDef{"serve.audit_p50_ms." + l, "ms", "lower"})
	}
	defs = append(defs, []metricDef{
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.ingest_rejects", "count", "lower"},
		{"serve.wal_appends", "count", "higher"},
		{"serve.wal_fsyncs", "count", "lower"},
		{"serve.wal_bytes_per_block", "B", "lower"},
		{"serve.wal_checkpoints", "count", "lower"},
		{"observer.batches", "count", "higher"},
		{"observer.retries", "count", "lower"},
		{"observer.resends", "count", "lower"},
		{"observer.apply_ms", "ms", "lower"},
		{"pipeline.tasks", "count", "higher"},
		{"pipeline.queue_wait_p50_ms", "ms", "lower"},
		{"pipeline.busy_ms", "ms", "lower"},
		{"gc.cycles", "count", "lower"},
		{"gc.pause_total_ms", "ms", "lower"},
		{"loadgen.offered_rps", "1/s", "higher"},
		{"loadgen.late_max_ms", "ms", "lower"},
		{"trace.overhead_pct.rate_per_s", "%", "lower"},
		{"trace.overhead_pct.p50_ms", "%", "lower"},
		{"trace.overhead_pct.tail_ms", "%", "lower"},
	}...)
	for _, s := range spanNames {
		defs = append(defs, metricDef{"trace.self_ms." + s, "ms", "lower"})
	}
	return defs
}()

// registryDiff is the change in the process-global obs registry over a run:
// counters and timer counts/totals are differences; timer percentiles cover
// the whole process, which runs one workload.
type registryDiff struct {
	before, after obs.Snapshot
}

func (d registryDiff) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d registryDiff) timerCount(name string) float64 {
	return float64(d.after.Timers[name].Count - d.before.Timers[name].Count)
}

func (d registryDiff) timerTotalMS(name string) float64 {
	return d.after.Timers[name].TotalMS - d.before.Timers[name].TotalMS
}

// runtimeAllocs is a reading of the heap allocation counter.
type runtimeAllocs uint64

func (a *runtimeAllocs) read() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	*a = runtimeAllocs(m.Mallocs)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, os.ErrNotExist
}

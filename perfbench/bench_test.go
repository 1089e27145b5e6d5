package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// A stalled response must charge its wait to every request scheduled behind
// it: latency runs from each request's due time, not from when the single
// connection got round to sending it.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 200 * time.Millisecond
	lg := openLoop{start: time.Now().Add(5 * time.Millisecond), interval: interval, count: 8}
	res := lg.run(context.Background(), func(ctx context.Context, i int) error {
		if i == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(res) != 8 {
		t.Fatalf("got %d results, want 8", len(res))
	}
	for _, r := range res[3:] {
		// Request i was due (i-2) intervals after the stalled one started.
		floor := stall - time.Duration(r.index-2)*interval
		if r.latency < floor {
			t.Errorf("request %d behind a %v stall: latency %v, want at least %v", r.index, stall, r.latency, floor)
		}
	}
	if res[0].latency > stall/2 {
		t.Errorf("request 0 ran before the stall but took %v", res[0].latency)
	}
}

// The generator's own lag behind its schedule is reported per request.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	const lag = 20 * time.Millisecond
	late := func(ctx context.Context, due time.Time) error {
		return sleepUntil(ctx, due.Add(lag))
	}
	lg := openLoop{start: time.Now(), interval: time.Millisecond, count: 5, sleepUntil: late}
	res := lg.run(context.Background(), func(context.Context, int) error { return nil })
	for _, r := range res {
		if r.late < lag {
			t.Errorf("request %d: lateness %v, want at least %v", r.index, r.late, lag)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so the helper must sort
		}
		return s
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {99, 0.90, false}, {100, 0.90, true}, {19, 0.50, false}, {20, 0.50, true}} {
		_, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", c.q*100, c.n, err, c.ok)
		}
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 80, End: 120}, // runs past the parent
	}}
	self := tr.selfTimes()
	ms := float64(time.Millisecond)
	if got, want := self["root"]*ms, 100.0-60; got != want {
		t.Errorf("root self time %v ns, want %v", got, want)
	}
	if got, want := self["child"]*ms, 20.0+30+40; got != want {
		t.Errorf("child self time %v ns, want %v", got, want)
	}
}

// An aborted run — by context cancellation or by SIGTERM — leaves no
// listener, goroutine or temporary directory behind.
func TestAbortLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the reference scenario")
	}
	// os/signal starts one watcher goroutine for the life of the process on
	// first use; start it before taking the baseline.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGUSR1)
	signal.Stop(warm)

	for _, how := range []string{"cancel", "sigterm"} {
		t.Run(how, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type ready struct{ addr, tmp string }
			readyc := make(chan ready, 1)
			cfg := config{
				workload: "ingest_audit_mix", seed: 1, seconds: 60, workDir: t.TempDir(),
				ready: func(addr, tmp string) { readyc <- ready{addr, tmp} },
			}
			errc := make(chan error, 1)
			go func() {
				_, err := execute(ctx, cfg, io.Discard)
				errc <- err
			}()
			var got ready
			select {
			case got = <-readyc:
			case err := <-errc:
				t.Fatalf("run ended before serving: %v", err)
			}
			time.Sleep(500 * time.Millisecond) // mid-window: feeder and reader busy
			if how == "cancel" {
				cancel()
			} else if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("aborted run reported success")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("run did not stop within 30s of the abort")
			}
			if c, err := net.DialTimeout("tcp", got.addr, time.Second); err == nil {
				c.Close()
				t.Errorf("listener %s still accepts connections", got.addr)
			}
			if _, err := os.Stat(got.tmp); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("temporary directory %s remains (stat: %v)", got.tmp, err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines remain, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// BENCHMARK.json must list exactly the metrics and workloads the benchmark
// reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestChunkedPercentileIsMedianOfChunks(t *testing.T) {
	// Three chunks of 100: two calm, one with a burst of 20 slow samples.
	var s []float64
	for c := 0; c < 3; c++ {
		for i := 0; i < 100; i++ {
			v := float64(i)
			if c == 1 && i >= 80 {
				v = 1000
			}
			s = append(s, v)
		}
	}
	got, err := chunkedPercentile(s, 0.90)
	if err != nil || got != 89 {
		t.Errorf("chunked p90 = %v, %v; want 89 (the burst moves one chunk only)", got, err)
	}
	if _, err := chunkedPercentile(s[:99], 0.90); err == nil {
		t.Error("chunked p90 of 99 samples should be refused")
	}
}

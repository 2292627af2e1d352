// Command perfbench is the repository's end-to-end benchmark. run.sh
// builds melserved, melproxy and this harness from source and runs
//
//	perfbench -bin DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the harness launches the production binaries with their
// default flags as child processes on 127.0.0.1:0, drives them with a
// closed loop of two clients for S seconds, and prints the end-to-end
// metrics. With --trace 1 it prints the per-layer metrics instead: it
// replays the workload's inputs through each layer's public entry point
// in-process, replays the schedule through a fresh melserved (and
// melproxy) one request at a time, and runs the closed loop untraced and
// traced to measure the tracing overhead.
//
// Inputs come from --seed alone: request i's payload depends only on the
// seed and i. Before anything is timed, the expected verdict of every
// distinct payload is computed in-process; a served verdict that differs
// fails the run.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The line before it is the host block: CPU model, nproc, GOMAXPROCS, Go
// version, seed and the sample count behind each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/content"
	"repro/internal/core"
)

// Schedule sizes.
const (
	launches = 41 // fresh launches behind setup_s
	// wireWarmup lets raw_repeat's verdict cache reach its steady hit
	// ratio: a simulation of the LRU under Zipf(1.1) levels off at about
	// 93% hits after four passes' worth of requests over the case pool.
	wireWarmup  = 4 * workingSet
	proxyWarmup = 64 // sessions before timing
	// sliceWidth cuts the timed window into slices; throughput and the
	// latency quantiles are medians over them.
	sliceWidth = time.Second
)

type config struct {
	bin      string
	workload string
	seed     uint64
	seconds  int
	trace    bool
	requests int // when > 0, every closed-loop phase sends this many requests instead of running --seconds
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the melserved and melproxy binaries")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.IntVar(&cfg.requests, "requests", 0, "bound every closed-loop phase, warm-up included, by this many requests instead of --seconds")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.bin == "" || (trace != 0 && trace != 1) || cfg.seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	// The load generator's garbage collector competes with the programs
	// under test for the two CPUs; collecting less often steadies it.
	debug.SetGCPercent(200)

	ps := newProcSet(cfg.bin)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping children\n", s)
		ps.stopAll()
		os.Exit(128 + int(s.(syscall.Signal)))
	}()

	res, host, err := measure(cfg, ps)
	ps.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(host); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type hostBlock struct {
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Samples    map[string]int `json:"samples"`
	// StolenShare is the share of the CPUs' time the hypervisor took
	// during the timed window (steal in /proc/stat); QuietSlices of its
	// Slices, those that lost least, carry the throughput and latency
	// metrics.
	StolenShare float64  `json:"stolen_share"`
	Slices      int      `json:"slices"`
	QuietSlices int      `json:"quiet_slices"`
	Problems    []string `json:"problems,omitempty"`
}

// report collects metrics with the sample count behind each.
type report struct {
	res  result
	host hostBlock
}

func (r *report) set(name, unit string, v float64, samples int) {
	r.res.Metrics[name] = metric{v, unit}
	r.host.Samples[name] = samples
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// bench is one run: the generated workload, its expected answers and the
// child processes serving it.
type bench struct {
	cfg  config
	ps   *procSet
	w    *workload
	want *expected
	sink *sink // proxy_stream's upstream
	rep  *report
	bad  tally
	fail tally
}

func measure(cfg config, ps *procSet) (result, hostBlock, error) {
	rep := &report{
		res: result{Metrics: map[string]metric{}},
		host: hostBlock{
			CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Workload: cfg.workload, Seed: cfg.seed,
			Seconds: cfg.seconds, Trace: cfg.trace, Samples: map[string]int{},
		},
	}
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return result{}, hostBlock{}, err
	}
	// The detector and pipeline melserved and melproxy build with their
	// default flags (-alpha 0.01, default decode depth and budget).
	det, err := core.New(core.WithAlpha(0.01))
	if err != nil {
		return result{}, hostBlock{}, err
	}
	pipe, err := content.NewPipeline(det.ScanTraced, content.PipelineConfig{})
	if err != nil {
		return result{}, hostBlock{}, err
	}
	want, err := expect(w, det, pipe)
	if err != nil {
		return result{}, hostBlock{}, fmt.Errorf("expected verdicts: %w", err)
	}
	// Collect the garbage of input generation now, so that no collection
	// it left owing runs during a timed interval.
	runtime.GC()
	b := &bench{cfg: cfg, ps: ps, w: w, want: want, rep: rep}
	if w.proxy {
		if b.sink, err = startSink(); err != nil {
			return result{}, hostBlock{}, err
		}
		defer b.sink.close()
	}
	if cfg.trace {
		err = b.traced(det)
	} else {
		err = b.timed()
	}
	if err != nil {
		return result{}, hostBlock{}, err
	}
	rep.res.Correct = b.bad.count() == 0
	rep.host.Problems = append(b.bad.first, b.fail.first...)
	return rep.res, rep.host, nil
}

func (b *bench) servedArgs() []string {
	args := []string{"-listen", "127.0.0.1:0"}
	if b.w.content {
		args = append(args, "-content")
	}
	return args
}

func (b *bench) proxyArgs() []string {
	return []string{"-listen", "127.0.0.1:0", "-upstream", b.sink.addr()}
}

// launch starts the workload's serving binary as production does, takes
// it to its first verdict and kills it; it returns the time from exec to
// that verdict.
func (b *bench) launch() (time.Duration, error) {
	t0 := time.Now()
	if b.w.proxy {
		c, err := b.ps.start("melproxy", b.proxyArgs(), nil)
		if err != nil {
			return 0, err
		}
		defer b.ps.stop(c, syscall.SIGKILL)
		if err := session(c.addr, nil, b.w.units[0]); err != nil {
			return 0, fmt.Errorf("first session: %w", err)
		}
		return time.Since(t0), nil
	}
	c, err := b.ps.start("melserved", b.servedArgs(), nil)
	if err != nil {
		return 0, err
	}
	defer b.ps.stop(c, syscall.SIGKILL)
	conns, err := dialWire(c.addr, 1, b.w.content, false)
	if err != nil {
		return 0, err
	}
	defer closeWire(conns)
	k := b.w.pick(0)
	res, err := conns[0].Scan(b.w.items[k])
	if err != nil {
		return 0, fmt.Errorf("first scan: %w", err)
	}
	d := time.Since(t0)
	if got := fromClient(res); got != b.want.verdicts[k] {
		b.bad.note("launch: served %+v, expected %+v", got, b.want.verdicts[k])
	}
	return d, nil
}

// setup launches the stack `launches` times and reports the median as
// setup_s; the first, cold launch is returned on its own.
func (b *bench) setup() (first float64, err error) {
	var all []float64
	for range launches {
		d, err := b.launch()
		if err != nil {
			return 0, fmt.Errorf("launch: %w", err)
		}
		all = append(all, d.Seconds())
	}
	if !b.cfg.trace {
		b.rep.set("setup_s", "s", median(all), len(all))
	}
	return all[0], nil
}

// served is the main serving process of a run and the closed-loop load
// sent to it.
type served struct {
	b     *bench
	proc  *child
	wire  *wireLoad
	proxy *proxyLoad
	next  uint64 // next schedule index
}

func (b *bench) serve() (*served, error) {
	s := &served{b: b}
	var err error
	if b.w.proxy {
		s.proxy = &proxyLoad{w: b.w, failed: &b.fail, alerts: map[uint64][]alert{}}
		if s.proc, err = b.ps.start("melproxy", b.proxyArgs(), s.proxy.onLine); err != nil {
			return nil, err
		}
		s.proxy.addr = s.proc.addr
		return s, nil
	}
	if s.proc, err = b.ps.start("melserved", b.servedArgs(), nil); err != nil {
		return nil, err
	}
	s.wire = &wireLoad{w: b.w, want: b.want.verdicts, bad: &b.bad, failed: &b.fail}
	if s.wire.conns, err = dialWire(s.proc.addr, clients, b.w.content, false); err != nil {
		return nil, err
	}
	return s, nil
}

// phase returns the next closed-loop phase: count requests, or, with
// count 0, as many as fit in d. --requests, when set, overrides both.
func (s *served) phase(count int, d time.Duration) phase {
	if s.b.cfg.requests > 0 {
		count = s.b.cfg.requests
	}
	return phase{from: s.next, count: uint64(count), duration: d}
}

// warm sends the first requests of the schedule untimed; the timed
// phase continues the same schedule.
func (s *served) warm() []sample {
	n := wireWarmup
	if s.proxy != nil {
		n = proxyWarmup
	}
	samples, _ := s.loop(s.phase(n, 0))
	return samples
}

// loop runs one closed-loop phase, untraced or with spans into spans.
func (s *served) loop(ph phase) ([]sample, time.Duration) {
	do := func(w int, i uint64) sample {
		if s.proxy != nil {
			return s.proxy.do(w, i)
		}
		return s.wire.do(w, i)
	}
	samples, elapsed := closedLoop(ph, do)
	s.next = ph.from + uint64(len(samples))
	return samples, elapsed
}

// stop shuts the serving process down gracefully (melserved drains on
// SIGTERM, melproxy on SIGINT) and, for the proxy, checks every
// session's alerts once melproxy's output is fully read.
func (s *served) stop(checked ...[]sample) {
	if s.wire != nil {
		closeWire(s.wire.conns)
		s.b.ps.stop(s.proc, syscall.SIGTERM)
		return
	}
	s.b.ps.stop(s.proc, syscall.SIGINT)
	for _, ss := range checked {
		s.proxy.check(ss, s.b.want.alerts, &s.b.bad)
	}
}

// timed is the --trace 0 run: setup launches, then warm-up and the timed
// closed loop against a fresh serving process.
func (b *bench) timed() error {
	if _, err := b.setup(); err != nil {
		return err
	}
	s, err := b.serve()
	if err != nil {
		return err
	}
	warm := s.warm()
	pid := s.proc.pid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	steal, err := startStealMeter()
	if err != nil {
		return err
	}
	window := time.Duration(b.cfg.seconds) * time.Second
	samples, elapsed := s.loop(s.phase(0, window))
	stolen := steal.finish()
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(pid)
	if err != nil {
		return err
	}
	s.stop(warm, samples)
	if s.proxy != nil {
		b.checkDelivered(int64(len(b.w.units[0]))*launches, warm, samples)
	}
	if b.cfg.requests > 0 {
		window = elapsed
	}
	b.endToEnd(samples, window, stolen, cpu1-cpu0, rss)
	return nil
}

// checkDelivered compares the bytes the sink received with the bytes
// of every completed session (extra covers sessions outside the
// samples). A failed session may deliver a part, so it is skipped then.
func (b *bench) checkDelivered(extra int64, runs ...[]sample) {
	b.sink.close()
	sent := extra
	for _, run := range runs {
		for _, x := range run {
			sent += int64(x.bytes)
		}
	}
	if got := b.sink.bytes.Load(); b.fail.count() == 0 && got != sent {
		b.bad.note("sink received %d bytes, sessions sent %d", got, sent)
	}
}

// endToEnd derives the end-to-end metrics of one timed closed loop.
func (b *bench) endToEnd(samples []sample, window time.Duration, stolen []time.Duration, cpu time.Duration, rss int64) {
	r := b.rep
	var okBytes int64
	var served, worms, caught, benign, passed int
	for _, s := range samples {
		if !s.ok {
			continue
		}
		served++
		okBytes += int64(s.bytes)
		if b.w.worm[s.item] {
			worms++
			if s.flagged {
				caught++
			}
		} else {
			benign++
			if !s.flagged {
				passed++
			}
		}
	}
	// Throughput and latency are medians over the quieter half of the
	// one-second slices of the window: the slices in which the hypervisor
	// took the least CPU time from this machine (every slice it took none
	// from, if that is more than half). On a shared host, stolen time
	// comes in episodes that slow and stall whole seconds of a run; the
	// slices it spares measure the programs, not the neighbours. A slice
	// of a wire workload holds at least ten requests beyond its p99; one
	// of proxy_stream holds only about five sessions beyond it.
	tput, p50, p99 := perSlice(samples, window)
	keep := quietSlices(stolen, len(tput))
	var total time.Duration
	for _, d := range stolen {
		total += d
	}
	r.host.StolenShare = float64(total) / float64(window*time.Duration(runtime.NumCPU()))
	r.host.Slices, r.host.QuietSlices = len(tput), len(keep)
	r.set("throughput_mbps", "MB/s", median(pick(tput, keep))/1e6, len(keep))
	r.set("p50_ms", "ms", median(pick(p50, keep)), served)
	r.set("p99_ms", "ms", median(pick(p99, keep)), served)
	r.set("served_ratio", "ratio", ratio(served, len(samples)), len(samples))
	r.set("detect_ratio", "ratio", ratio(caught, worms), worms)
	r.set("benign_pass_ratio", "ratio", ratio(passed, benign), benign)
	r.set("cpu_ms_per_mb", "ms/MB", float64(cpu)/1e6/(float64(okBytes)/1e6), 1)
	r.set("rss_peak_mb", "MB", float64(rss)/1e6, 1)
	r.res.Attempted = len(samples)
	r.res.Failed = len(samples) - served
}

// perSlice cuts window into slices of about sliceWidth by completion
// time and returns, for each, the bytes per second answered and the
// median and 99th percentile latency in ms.
func perSlice(samples []sample, window time.Duration) (tput, p50, p99 []float64) {
	n := max(1, int(window/sliceWidth))
	width := window / time.Duration(n)
	tput = make([]float64, n)
	lat := make([][]float64, n)
	for _, s := range samples {
		if s.ok && s.end < window {
			k := min(int(s.end/width), n-1)
			tput[k] += float64(s.bytes)
			lat[k] = append(lat[k], float64(s.lat)/1e6)
		}
	}
	for k := range tput {
		tput[k] /= width.Seconds()
		p50 = append(p50, quantile(lat[k], 0.50))
		p99 = append(p99, quantile(lat[k], 0.99))
	}
	return tput, p50, p99
}

// quietSlices returns the indices of the quieter half of n slices, by
// the time stolen within each (a slice the meter did not see counts as
// the loudest), together with every slice that lost no time at all.
func quietSlices(stolen []time.Duration, n int) []int {
	loud := func(k int) time.Duration {
		if k < len(stolen) {
			return stolen[k]
		}
		return math.MaxInt64
	}
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
	}
	sort.SliceStable(idx, func(i, j int) bool { return loud(idx[i]) < loud(idx[j]) })
	keep := (n + 1) / 2
	for keep < n && loud(idx[keep]) == 0 {
		keep++
	}
	return idx[:keep]
}

func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, 0, len(idx))
	for _, k := range idx {
		out = append(out, xs[k])
	}
	return out
}

// ratio is num/den, or 1 when nothing was sent (nothing missed).
func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

// spanPath is where a traced run writes its spans.
func (b *bench) spanPath() string {
	return filepath.Join(filepath.Dir(filepath.Clean(b.cfg.bin)), "spans",
		fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.cfg.seed))
}

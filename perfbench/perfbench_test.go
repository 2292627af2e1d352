package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// binDir holds melserved, melproxy and perfbench, built once from the
// repository this package sits in.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = filepath.Join(dir, "bin")
	code := 1
	if err := build(binDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func build(dir string) error {
	for _, c := range []*exec.Cmd{
		exec.Command("go", "build", "-o", dir+"/", "./cmd/melserved", "./cmd/melproxy"),
		exec.Command("go", "build", "-o", filepath.Join(dir, "perfbench"), "."),
	} {
		if c.Args[len(c.Args)-1] != "." {
			c.Dir = ".."
		}
		if out, err := c.CombinedOutput(); err != nil {
			return fmt.Errorf("%v: %v\n%s", c.Args, err, out)
		}
	}
	return nil
}

func digest(items [][]byte) [sha256.Size]byte {
	h := sha256.New()
	for _, it := range items {
		h.Write(it)
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Request i's payload depends on the seed and i alone.
func TestScheduleDependsOnlyOnSeedAndIndex(t *testing.T) {
	for _, name := range workloads {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newWorkload(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if digest(a.items) != digest(b.items) {
			t.Errorf("%s: seed 7 built different inputs twice", name)
		}
		if digest(a.items) == digest(c.items) {
			t.Errorf("%s: seeds 7 and 8 built the same inputs", name)
		}
		for i := uint64(0); i < 50000; i += 7 {
			if a.pick(i) != b.pick(i) {
				t.Fatalf("%s: request %d picks item %d, then %d", name, i, a.pick(i), b.pick(i))
			}
		}
		if a.worm[a.pick(0)] != b.worm[b.pick(0)] {
			t.Errorf("%s: ground truth differs between builds", name)
		}
	}
}

// The end-to-end medians are taken over the quieter half of the slices,
// and over every slice that lost no time when those are more.
func TestQuietSlices(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		stolen []time.Duration
		n      int
		want   []int
	}{
		{[]time.Duration{30 * ms, 0, 10 * ms, 500 * ms}, 4, []int{1, 2}},
		{[]time.Duration{0, 0, 0, 10 * ms}, 4, []int{0, 1, 2}},
		{[]time.Duration{20 * ms, 20 * ms, 20 * ms}, 3, []int{0, 1}},
		{[]time.Duration{10 * ms}, 3, []int{0, 1}}, // unseen slices rank last
		{nil, 1, []int{0}},
	} {
		got := quietSlices(c.stolen, c.n)
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("quietSlices(%v, %d) = %v, want %v", c.stolen, c.n, got, c.want)
		}
	}
}

// A warm-up phase and the phase after it send consecutive, disjoint
// runs of the schedule, whatever the timing.
func TestPhasesContinueTheSchedule(t *testing.T) {
	var mu sync.Mutex
	var sent []uint64
	do := func(_ int, i uint64) sample {
		mu.Lock()
		sent = append(sent, i)
		mu.Unlock()
		return sample{req: i, ok: true}
	}
	warm, _ := closedLoop(phase{from: 0, count: 100}, do)
	timed, _ := closedLoop(phase{from: 100, duration: 20 * time.Millisecond}, do)
	if len(warm) != 100 {
		t.Fatalf("warm-up sent %d requests, want 100", len(warm))
	}
	slices.Sort(sent)
	for k, i := range sent {
		if i != uint64(k) {
			t.Fatalf("request %d sent at position %d: the schedule has a gap or a repeat", i, k)
		}
	}
	if len(sent) != 100+len(timed) {
		t.Fatalf("sent %d requests, phases report %d", len(sent), 100+len(timed))
	}
}

// The exact counts of a short count-bounded run repeat for a seed.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the serving binaries")
	}
	exact := map[bool][]string{
		false: {"served_ratio", "detect_ratio", "benign_pass_ratio"},
		true: {"server.cache_hit_ratio", "content.triage_clear_ratio", "content.views_per_payload",
			"mel.states_per_kb", "core.window_scans_per_kb"},
	}
	for _, name := range []string{"raw_repeat", "content_mixed", "proxy_stream"} {
		for _, trace := range []bool{false, true} {
			if trace && name == "proxy_stream" {
				continue
			}
			var runs []result
			for range 2 {
				cfg := config{bin: binDir, workload: name, seed: 3, seconds: 1, trace: trace, requests: 400}
				ps := newProcSet(binDir)
				res, _, err := measure(cfg, ps)
				ps.stopAll()
				if err != nil {
					t.Fatalf("%s trace=%v: %v", name, trace, err)
				}
				if !res.Correct {
					t.Fatalf("%s trace=%v: served verdicts differ from the expected ones", name, trace)
				}
				if len(ps.live) != 0 {
					t.Fatalf("%s trace=%v: %d children still live", name, trace, len(ps.live))
				}
				runs = append(runs, res)
			}
			for _, m := range exact[trace] {
				a, b := runs[0].Metrics[m], runs[1].Metrics[m]
				if a != b {
					t.Errorf("%s trace=%v: %s = %v, then %v", name, trace, m, a.Value, b.Value)
				}
			}
		}
	}
}

// harness runs the perfbench binary and reports the children it started
// and the addresses they served on, read from its standard error.
type harness struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	mu     sync.Mutex
	pids   []int
	addrs  []string
	lines  chan string
	done   chan struct{}
}

func startHarness(t *testing.T, args ...string) *harness {
	t.Helper()
	h := &harness{lines: make(chan string, 1024), done: make(chan struct{})}
	h.cmd = exec.Command(filepath.Join(binDir, "perfbench"), append([]string{"-bin", binDir}, args...)...)
	h.cmd.Stdout = &h.stdout
	stderr, err := h.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(h.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			f := strings.Fields(line)
			h.mu.Lock()
			if len(f) >= 5 && f[1] == "started" {
				if pid, err := strconv.Atoi(f[4]); err == nil {
					h.pids = append(h.pids, pid)
				}
			}
			if _, addr, ok := strings.Cut(line, "serving on "); ok {
				h.addrs = append(h.addrs, addr)
			}
			h.mu.Unlock()
			select {
			case h.lines <- line:
			default:
			}
		}
	}()
	return h
}

// wait returns the harness's exit code once its output is drained.
func (h *harness) wait(t *testing.T) int {
	t.Helper()
	<-h.done
	err := h.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// assertNothingLeft fails if any child the harness started still exists
// or any address it served on still accepts connections.
func (h *harness) assertNothingLeft(t *testing.T) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.pids) == 0 {
		t.Fatal("the harness reported no children")
	}
	for _, pid := range h.pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child pid %d outlived the harness (kill 0: %v)", pid, err)
		}
	}
	for _, addr := range h.addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections", addr)
		}
	}
}

func TestNoChildOutlivesNormalExit(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the serving binaries")
	}
	h := startHarness(t, "--workload", "proxy_stream", "--seed", "2", "--requests", "50", "--trace", "1")
	if code := h.wait(t); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	h.assertNothingLeft(t)
}

func TestNoChildOutlivesSignal(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the serving binaries")
	}
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGINT} {
		for _, name := range []string{"raw_unique", "proxy_stream"} {
			h := startHarness(t, "--workload", name, "--seed", "1", "--seconds", "60")
			// Signal once the main serving process of the timed run is up:
			// after the setup launches, with children, a sink and client
			// connections live.
			deadline := time.After(2 * time.Minute)
			for started := 0; started <= launches; {
				select {
				case line := <-h.lines:
					if strings.Contains(line, " started ") {
						started++
					}
				case <-h.done:
					t.Fatalf("%s: harness exited before the timed run", name)
				case <-deadline:
					h.cmd.Process.Kill()
					t.Fatalf("%s: timed run never started", name)
				}
			}
			time.Sleep(500 * time.Millisecond)
			if err := h.cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			if code := h.wait(t); code != 128+int(sig) {
				t.Errorf("%s %v: exit code %d, want %d", name, sig, code, 128+int(sig))
			}
			if h.stdout.Len() != 0 {
				t.Errorf("%s %v: printed a result after the signal: %q", name, sig, h.stdout.String())
			}
			h.assertNothingLeft(t)
		}
	}
}

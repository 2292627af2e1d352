package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child processes. Every melserved/melproxy the benchmark starts is a
// member of one procSet: it runs in its own process group, carries
// Pdeathsig so the kernel kills it if the harness dies without cleaning
// up, and is killed and waited for by stopAll on every exit path the
// harness controls (normal end, error, SIGINT/SIGTERM).

const (
	readyTimeout = 10 * time.Second
	stopTimeout  = 5 * time.Second
)

type child struct {
	name  string
	cmd   *exec.Cmd
	addr  string        // listen address from the ready line
	ready chan string   // receives the address once
	done  chan struct{} // closed once the output is drained and Wait returned
	tail  []string      // last output lines, for error reports
}

func (c *child) pid() int { return c.cmd.Process.Pid }

type procSet struct {
	bin    string
	mu     sync.Mutex
	closed bool
	live   map[*child]bool
}

func newProcSet(bin string) *procSet {
	return &procSet{bin: bin, live: make(map[*child]bool)}
}

var errStopped = errors.New("harness is stopping")

// start launches name with args and returns once it prints its ready
// line. onLine, when set, sees every output line (stdout and stderr
// merged) from the reader goroutine.
func (ps *procSet) start(name string, args []string, onLine func(string)) (*child, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(ps.bin, name), args...)
	cmd.Stdout, cmd.Stderr = w, w
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{name: name, cmd: cmd, ready: make(chan string, 1), done: make(chan struct{})}

	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		r.Close()
		w.Close()
		return nil, errStopped
	}
	err = cmd.Start()
	if err == nil {
		ps.live[c] = true
	}
	ps.mu.Unlock()
	w.Close()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: started %s pid %d\n", name, c.pid())

	var tailMu sync.Mutex
	go func() {
		sc := bufio.NewScanner(r)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced {
				if addr := readyAddr(name, line); addr != "" {
					announced = true
					c.ready <- addr
				}
			}
			if onLine != nil {
				onLine(line)
			}
			tailMu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > 8 {
				c.tail = c.tail[1:]
			}
			tailMu.Unlock()
		}
		r.Close()
		_ = cmd.Wait()
		ps.mu.Lock()
		delete(ps.live, c)
		ps.mu.Unlock()
		close(c.done)
	}()

	select {
	case c.addr = <-c.ready:
		fmt.Fprintf(os.Stderr, "perfbench: %s pid %d serving on %s\n", name, c.pid(), c.addr)
		return c, nil
	case <-c.done:
		tailMu.Lock()
		defer tailMu.Unlock()
		return nil, fmt.Errorf("%s exited before serving: %v: %s", name, cmd.ProcessState, strings.Join(c.tail, " | "))
	case <-time.After(readyTimeout):
		ps.stop(c, syscall.SIGKILL)
		return nil, fmt.Errorf("%s not serving after %v", name, readyTimeout)
	}
}

// readyAddr extracts the listen address from a binary's ready line:
// "melserved: serving on ADDR" or melproxy's "melproxy: ADDR -> UPSTREAM".
func readyAddr(name, line string) string {
	switch name {
	case "melserved":
		if _, addr, ok := strings.Cut(line, "serving on "); ok {
			return strings.TrimSpace(addr)
		}
	case "melproxy":
		if _, rest, ok := strings.Cut(line, "melproxy: "); ok {
			if addr, _, ok := strings.Cut(rest, " -> "); ok {
				return strings.TrimSpace(addr)
			}
		}
	}
	return ""
}

// stop signals c's process group and waits for it to exit and for its
// output to drain; a child still running after stopTimeout is killed.
func (ps *procSet) stop(c *child, sig syscall.Signal) {
	select {
	case <-c.done:
		return
	default:
	}
	_ = syscall.Kill(-c.pid(), sig)
	select {
	case <-c.done:
		return
	case <-time.After(stopTimeout):
	}
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	<-c.done
}

// stopAll refuses further starts, kills every live child's process
// group and waits for each to exit.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	ps.closed = true
	live := make([]*child, 0, len(ps.live))
	for c := range ps.live {
		live = append(live, c)
		_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	}
	ps.mu.Unlock()
	for _, c := range live {
		<-c.done
	}
}

// procCPU returns the user+sys CPU time of pid so far, from
// /proc/<pid>/stat (USER_HZ is 100 on Linux).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// hostSteal returns the time the hypervisor has taken from this
// machine's CPUs so far, summed over them: the steal column of the cpu
// line of /proc/stat.
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: unexpected format")
	}
	st, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat: bad steal: %w", err)
	}
	return time.Duration(st) * 10 * time.Millisecond, nil
}

// stealMeter reads the host's steal counter at every sliceWidth
// boundary of a timed window.
type stealMeter struct {
	stop chan struct{}
	done chan struct{}
	at   []time.Duration // steal at the window's start and at each boundary since
}

func startStealMeter() (*stealMeter, error) {
	st, err := hostSteal()
	if err != nil {
		return nil, err
	}
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{}), at: []time.Duration{st}}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(sliceWidth)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if st, err := hostSteal(); err == nil {
					m.at = append(m.at, st)
				}
			}
		}
	}()
	return m, nil
}

// finish stops the meter and returns the steal within each whole slice
// it saw.
func (m *stealMeter) finish() []time.Duration {
	close(m.stop)
	<-m.done
	var per []time.Duration
	for k := 1; k < len(m.at); k++ {
		per = append(per, m.at[k]-m.at[k-1])
	}
	return per
}

// procPeakRSS returns VmHWM of pid in bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

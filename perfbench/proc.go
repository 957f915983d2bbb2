package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// wcmdProc is one running wcmd process.
type wcmdProc struct {
	cmd  *exec.Cmd
	addr string
	args []string
	log  *os.File
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startWcmd launches bin with args plus a fresh -addr, and returns once
// /healthz answers 200, with the time that took.
func startWcmd(bin string, args []string, logPath string) (*wcmdProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// wcmd dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start wcmd: %w", err)
	}
	p := &wcmdProc{cmd: cmd, addr: addr, args: full, log: logf}
	if err := p.waitHealthy(30 * time.Second); err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, time.Since(t0), nil
}

func (p *wcmdProc) waitHealthy(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := c.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to free the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("wcmd %v: /healthz not answering after %v", p.args, limit)
}

// kill sends SIGKILL and waits for the process to end.
func (p *wcmdProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	p.cmd.Wait()         //nolint:errcheck // a killed process reports its signal
	p.log.Close()
}

// cpuTime returns the process's utime + stime from /proc.
func (p *wcmdProc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// vmHWM returns the process's peak resident set size in bytes.
func (p *wcmdProc) vmHWM() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// promSample is a scraped /metrics snapshot: "name{labels}" → value.
type promSample map[string]float64

func scrapeMetrics(addr string) (promSample, error) {
	c := &http.Client{Timeout: clientTimeout}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sum adds every series of the family name (any labels).
func (m promSample) sum(name string) float64 {
	t := 0.0
	for k, v := range m {
		if k == name || (strings.HasPrefix(k, name+"{")) {
			t += v
		}
	}
	return t
}

// delta returns after.sum(name) − before.sum(name).
func delta(before, after promSample, name string) float64 { return after.sum(name) - before.sum(name) }

// cpuSteal reads the machine-wide CPU time stolen by the hypervisor and the
// total, in clock ticks, from /proc/stat. Their deltas over a phase show how
// much of it this machine's vCPUs spent descheduled.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// counters is one reading of the machine's steal and wcmd's CPU time.
type counters struct {
	t            time.Time
	steal, total int64
	cpu          time.Duration
}

// sampler reads counters every 100 ms while a phase runs, so the phase can
// be split into windows by how much CPU the hypervisor stole in each.
type sampler struct {
	proc       *wcmdProc // nil: no CPU time to read
	pts        []counters
	stop, done chan struct{}
}

func startSampler(p *wcmdProc) *sampler {
	s := &sampler{proc: p, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stop:
				s.sample()
				return
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	c := counters{t: time.Now()}
	c.steal, c.total = cpuSteal()
	if s.proc != nil {
		c.cpu, _ = s.proc.cpuTime() // a failed read leaves the window's CPU at 0
	}
	s.pts = append(s.pts, c)
}

// finish stops sampling; the readings may be used once it returns.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// between returns the steal share and wcmd's CPU time between the first
// reading at or after t0 and the last at or before t1.
func (s *sampler) between(t0, t1 time.Time) (steal float64, cpu time.Duration) {
	a := sort.Search(len(s.pts), func(i int) bool { return !s.pts[i].t.Before(t0) })
	b := sort.Search(len(s.pts), func(i int) bool { return s.pts[i].t.After(t1) }) - 1
	if a >= len(s.pts) || b <= a {
		return 0, 0
	}
	p, q := s.pts[a], s.pts[b]
	return ratio(float64(q.steal-p.steal), float64(q.total-p.total)), q.cpu - p.cpu
}

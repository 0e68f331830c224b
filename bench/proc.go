package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverArgs are the flags every run starts contender-serve with: both
// fronts on ephemeral ports, full sampling at MPLs 2–5, seed 42. Nothing
// else is configured, so the server runs its defaults and the Metrics
// observer it always installs.
var serverArgs = []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-max-mpl", "5", "-seed", "42"}

// child is a contender-serve process, or the echo.
type child struct {
	cmd    *exec.Cmd
	target target
	addrs  chan target // the bound addresses, once both are printed
	done   chan struct{}
	tail   []string // the last lines of standard error, for diagnostics
}

// startServer starts contender-serve (or the echo) and returns as soon
// as the process runs; addresses arrive on c.addrs as the server prints
// them.
func startServer(path string, args ...string) (*child, error) {
	cmd := exec.Command(path, args...)
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	// addrs holds the two address reports, so scan never blocks on them.
	c := &child{cmd: cmd, addrs: make(chan target, 2), done: make(chan struct{})}
	go c.scan(stderr)
	return c, nil
}

// scan reads the server's standard error until it closes: it publishes
// the binary address as soon as it is printed, then both addresses.
func (c *child) scan(r io.Reader) {
	defer close(c.done)
	sc := bufio.NewScanner(r)
	var t target
	for sc.Scan() {
		line := sc.Text()
		if len(c.tail) == 8 {
			c.tail = c.tail[1:]
		}
		c.tail = append(c.tail, line)
		switch {
		case strings.HasPrefix(line, "serve: binary protocol on "):
			t.bin = strings.TrimPrefix(line, "serve: binary protocol on ")
			c.addrs <- t
		case strings.HasPrefix(line, "serve: http://"):
			t.http, _, _ = strings.Cut(strings.TrimPrefix(line, "serve: http://"), "/")
			c.addrs <- t
		}
	}
	// After a scanner error (an overlong line), keep draining so the
	// server never blocks writing to standard error.
	_, _ = io.Copy(io.Discard, r)
}

// await waits for the next address report: first the binary address
// alone, then both.
func (c *child) await(timeout time.Duration) error {
	select {
	case t := <-c.addrs:
		c.target = t
		return nil
	case <-c.done:
		return fmt.Errorf("contender-serve exited before it was ready: %s", strings.Join(c.tail, " | "))
	case <-time.After(timeout):
		return errors.New("contender-serve did not report its address in time")
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop interrupts the server (it drains and exits), kills it if it does
// not end within ten seconds, and waits for it. Errors are dropped: a
// signal fails only when the process has already exited, and how the
// server exits changes no measurement.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	_ = c.cmd.Wait()
}

// coldStart starts a server and returns it with the time from exec to
// the first correct prediction (the probe request, over the binary
// protocol).
func coldStart(path string, probe *request) (*child, time.Duration, error) {
	t0 := time.Now()
	c, err := startServer(path, serverArgs...)
	if err != nil {
		return nil, 0, err
	}
	if err := c.await(60 * time.Second); err != nil {
		c.stop()
		return nil, 0, err
	}
	ok, err := askOnce(c.target.bin, probe)
	d := time.Since(t0)
	if err == nil && !ok {
		err = errors.New("the cold-start probe got a wrong prediction")
	}
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, d, nil
}

// startEcho starts the echo (this binary, run as bench echo) and waits
// until it serves both fronts.
func startEcho() (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c, err := startServer(self, "echo")
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if err := c.await(30 * time.Second); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// askOnce sends r alone on a fresh binary connection and checks the
// response.
func askOnce(addr string, r *request) (bool, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return false, err
	}
	var cd binaryCodec
	bw := bufio.NewWriter(conn)
	if err := cd.write(bw, r, 0); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}
	return cd.read(bufio.NewReader(conn), r, 0)
}

// Process statistics, read from outside the server: /proc and its HTTP
// front. /debug/vars is not used (see README: it is not valid JSON).

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user plus system CPU time of a process.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces: fields start after its ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns VmHWM, the process's peak resident set, in MB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// httpGet fetches a diagnostics page of the server's HTTP front.
func httpGet(addr, path string) ([]byte, error) {
	client := http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

// heapStats returns the runtime's cumulative allocated bytes and GC
// cycles from the trailer of /debug/pprof/heap?debug=1.
func heapStats(addr string) (totalAlloc, numGC float64, err error) {
	b, err := httpGet(addr, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			totalAlloc, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			numGC, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, errors.New("heap profile trailer lacks TotalAlloc or NumGC")
	}
	return totalAlloc, numGC, nil
}

// scrapeMetrics reads /metrics into a map from series (name plus labels,
// as printed) to value.
func scrapeMetrics(addr string) (map[string]float64, error) {
	b, err := httpGet(addr, "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ocpmesh/internal/obs"
	"ocpmesh/internal/obs/costs"
	obsserve "ocpmesh/internal/obs/serve"
	"ocpmesh/internal/serve"
)

// child is an ocpserve process serving on a loopback port.
type child struct {
	cmd   *exec.Cmd
	addr  string
	drain chan struct{}
	once  sync.Once
}

// children tracks every live child so a signal can stop them all.
var children struct {
	sync.Mutex
	m map[*child]bool
}

// startChild runs bin with its default flags except the listen address
// (a free loopback port) in dir, and waits until it serves.
func startChild(bin, dir string) (*child, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, drain: make(chan struct{})}
	children.Lock()
	if children.m == nil {
		children.m = make(map[*child]bool)
	}
	children.m[c] = true
	children.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(c.drain)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			const marker = "serving on http://"
			if line := sc.Text(); strings.Contains(line, marker) {
				a := line[strings.Index(line, marker)+len(marker):]
				if i := strings.IndexByte(a, '/'); i >= 0 {
					a = a[:i]
				}
				select {
				case addr <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, out)
	}()
	select {
	case c.addr = <-addr:
		return c, nil
	case <-c.drain:
		err = fmt.Errorf("%s exited before serving", bin)
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("%s did not serve within 30s", bin)
	}
	c.stop()
	return nil, err
}

// stop sends SIGTERM, escalates to SIGKILL after 10 s, and waits for
// the process to end.
func (c *child) stop() {
	c.once.Do(func() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.drain:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.drain
		}
		_ = c.cmd.Wait()
		children.Lock()
		delete(children.m, c)
		children.Unlock()
	})
}

func stopChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.m))
	for c := range children.m {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// clockTick is the USER_HZ unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

// cpu returns the child's user+system CPU time so far.
func (c *child) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSS returns the child's VmHWM in MiB.
func (c *child) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(f[1], 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// inproc is the traced run's server: the same wiring as ocpserve's
// defaults (recorder with metrics, live sink, flight ring, obs
// side-car), inside the benchmark process so its layers can be called
// directly.
type inproc struct {
	srv    *serve.Server
	finish func() error
	addr   string
}

func startInproc(seed int64) (*inproc, error) {
	flight := obs.NewFlightRecorder(obs.FlightConfig{})
	live := obs.NewLiveSink(1024)
	rec, finish, err := obs.SetupWith(obs.SetupConfig{
		Run:     obs.NewRun("perfbench", seed, nil),
		Metrics: true,
		Extra:   []obs.Sink{live, flight},
	})
	if err != nil {
		return nil, err
	}
	svc := serve.New(serve.Options{Recorder: rec})
	side := obsserve.New(rec, live, costs.NewFabric(0)).WithFlight(flight)
	srv := serve.NewServer(svc, side.Handler())
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		_ = finish()
		return nil, err
	}
	return &inproc{srv: srv, finish: finish, addr: bound.String()}, nil
}

func (p *inproc) stop() error {
	err := p.srv.Close()
	if ferr := p.finish(); err == nil {
		err = ferr
	}
	return err
}

// cpuTicks reads the machine-wide CPU tick counters of /proc/stat:
// total, and stolen by the hypervisor. The steal share of a run is
// printed with its result, since a noisy host moves every timing.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, f := range strings.Fields(line)[1:min(9, len(line))] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

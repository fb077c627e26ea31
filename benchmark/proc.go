package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark builds or writes lives,
// relative to the repository root. It is listed in .gitignore.
const buildDir = ".bench_build"

// repoRoot returns the checkout the benchmark runs in: the directory
// above its own module. It fails when the program's sources are absent,
// which is how the benchmark refuses to run outside a checkout.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "matchd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/matchd next to or above %s: run from a checkout of the repository", wd)
}

// buildEnv keeps the Go tool's caches and temporary files inside the
// checkout.
func buildEnv(root string) []string {
	b := filepath.Join(root, buildDir)
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(b, "gocache"),
		"GOTMPDIR="+filepath.Join(b, "tmp"),
	)
}

// buildServers compiles matchd and router from the checkout's sources and
// returns the directory holding them and the wall time the build took.
// Build-cache state is not a property of the code under test, so this
// happens before any set-up clock starts.
func buildServers(root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(root, buildDir, "bin")
	for _, d := range []string{bin, filepath.Join(root, buildDir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return "", 0, err
		}
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/matchd", "./cmd/router")
	cmd.Dir = root
	cmd.Env = buildEnv(root)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build matchd router: %w\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// ---- child processes ----

// children tracks every live server so that exit, a signal or a panic
// can kill them all. Each child leads its own process group.
var children struct {
	sync.Mutex
	live map[*child]bool
}

// child is one server process.
type child struct {
	Name    string
	cmd     *exec.Cmd
	log     *os.File
	done    chan struct{} // closed when Wait returns
	waitErr error
	started time.Time
	BootS   float64 // exec to first 200 on /healthz
	URL     string  // http://127.0.0.1:port
}

// startChild execs bin with args, logging to logPath.
func startChild(name, bin, logPath string, args ...string) (*child, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c := &child{Name: name, cmd: cmd, log: lf, done: make(chan struct{})}
	children.Lock()
	defer children.Unlock()
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	go func() {
		c.waitErr = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// alive reports whether the process is still running.
func (c *child) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// stop kills the child's process group and waits until it has ended.
func (c *child) stop() {
	if c.alive() {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
	<-c.done
	c.log.Close()
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// logTail returns the last lines of the child's log for error reports.
func (c *child) logTail() string {
	b, err := os.ReadFile(c.log.Name())
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// stopAllChildren kills whatever is still running. Safe to call twice.
func stopAllChildren() {
	children.Lock()
	var all []*child
	for c := range children.live {
		all = append(all, c)
	}
	children.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// killChildrenOnSignal makes SIGINT/SIGTERM take the servers down with
// the harness.
func killChildrenOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		stopAllChildren()
		os.Exit(130)
	}()
}

// freeAddr returns a loopback address whose port the kernel just handed
// out for a :0 bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// awaitHealthy polls GET /healthz every millisecond until it answers 200, the
// child dies, or the deadline passes, and records the boot time.
func (c *child) awaitHealthy(deadline time.Duration) error {
	started := c.started
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(started) < deadline {
		if !c.alive() {
			return fmt.Errorf("%s exited during boot: %v\n%s", c.Name, c.waitErr, c.logTail())
		}
		resp, err := client.Get(c.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.BootS = time.Since(started).Seconds()
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v\n%s", c.Name, deadline, c.logTail())
}

// ---- /proc accounting ----

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux platform Go supports.
const clockTick = 100

// cpuSeconds returns utime+stime of the child so far.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 (1-based) after ") ".
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMB returns the child's VmHWM in MB.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

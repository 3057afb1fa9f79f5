package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workDir holds everything the bench writes: the built daemon and one
// directory per run. It sits inside the bench's own directory (the process
// runs there under both `go -C bench run .` and `go test`) and is ignored by
// git.
const workDir = ".work"

// buildDaemon compiles cmd/parajoind into workDir. go build is incremental,
// so only the first call in a checkout pays for it.
func buildDaemon(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(workDir, "bin", "parajoind"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "parajoin/cmd/parajoind")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building parajoind: %v\n%s", err, out)
	}
	return bin, nil
}

// newRunDir makes a fresh per-run directory for CSVs, -data-dir, -spill-dir
// and the children's TMPDIR. The caller removes it on every exit path.
func newRunDir() (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// logBuffer collects a child's stderr and wakes waiters on every write. Logs
// stay in memory and are printed only when a run fails.
type logBuffer struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	changed chan struct{}
}

func newLogBuffer() *logBuffer { return &logBuffer{changed: make(chan struct{})} }

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf.Write(p)
	ch := b.changed
	b.changed = make(chan struct{})
	b.mu.Unlock()
	close(ch)
	return len(p), nil
}

func (b *logBuffer) snapshot() (string, <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String(), b.changed
}

// proc is one parajoind child.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *logBuffer
	done chan struct{} // closed once the process has been waited for
}

func startProc(name, bin, tmpDir string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), log: newLogBuffer(), done: make(chan struct{})}
	p.cmd.Stderr = p.log
	p.cmd.Stdout = p.log
	p.cmd.Env = append(os.Environ(), "TMPDIR="+tmpDir)
	p.cmd.SysProcAttr = childProcAttr()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitLog blocks until the child's log matches re and returns the
// submatches, or fails when the child exits or ctx ends first.
func (p *proc) waitLog(ctx context.Context, re *regexp.Regexp) ([]string, error) {
	for {
		text, changed := p.log.snapshot()
		if m := re.FindStringSubmatch(text); m != nil {
			return m, nil
		}
		select {
		case <-changed:
		case <-p.done:
			// The exit races the last log write; look once more.
			text, _ = p.log.snapshot()
			if m := re.FindStringSubmatch(text); m != nil {
				return m, nil
			}
			return nil, fmt.Errorf("%s exited before logging %q", p.name, re)
		case <-ctx.Done():
			return nil, fmt.Errorf("%s: waiting for %q: %w", p.name, re, context.Cause(ctx))
		}
	}
}

// stop asks the child to drain and kills it if it has not gone within the
// grace period. It returns only once the process has been reaped.
func (p *proc) stop(grace time.Duration) {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// cpuAndPeakRSS reads the child's user+system CPU time and its resident-set
// high-water mark from /proc.
func (p *proc) cpuAndPeakRSS() (cpu time.Duration, rssBytes int64, err error) {
	pid := strconv.Itoa(p.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	cpu, err = parseProcStatCPU(string(stat))
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", p.name, err)
	}
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, err
	}
	rssBytes, err = parseProcStatusHWM(string(status))
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", p.name, err)
	}
	return cpu, rssBytes, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime. It
// is 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

func parseProcStatCPU(stat string) (time.Duration, error) {
	// The command name (field 2) is parenthesised and may contain spaces;
	// fields are counted from the closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	fields := strings.Fields(stat[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("malformed /proc stat line %q: %w", stat, err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

func parseProcStatusHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// serving is a workload's running server side: one standalone daemon, or a
// coordinator and its data nodes.
type serving struct {
	addr  string  // where clients connect
	procs []*proc // coordinator (or the standalone daemon) first
}

var (
	reServing      = regexp.MustCompile(`serving on (\S+) \(`)
	reCoordinating = regexp.MustCompile(`cluster: coordinating on (\S+) \(`)
)

// startServing spawns the workload's daemons at parajoind's default
// settings — the flags below are paths, ports, the two values the issue pins
// (-workers 8 -parallelism 1, so results do not follow the host's
// GOMAXPROCS) and the one knob a workload is about — and returns once they
// answer queries. On error everything it started is stopped.
func startServing(ctx context.Context, w *workload, bin, runDir string, csvs map[string]string) (_ *serving, err error) {
	ctx, cancel := context.WithTimeoutCause(ctx, 60*time.Second, errors.New("daemons not ready within 60s"))
	defer cancel()
	sv := &serving{}
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, sv.logs())
			sv.stop()
		}
	}()

	gen, err := os.MkdirTemp(runDir, "gen-") // per set-up repetition: data dirs must start empty
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(daemonWorkers),
		"-parallelism", "1",
		"-spill-dir", gen,
	}
	if w.memLimit > 0 {
		args = append(args, "-spill", "on-pressure", "-mem-limit", strconv.FormatInt(w.memLimit, 10))
	}
	if w.dist {
		args = append(args, "-cluster-listen", "127.0.0.1:0",
			"-data-dir", filepath.Join(gen, "coord"), "-part-slots", strconv.Itoa(partSlots))
	}
	names := make([]string, 0, len(csvs))
	for name := range csvs {
		names = append(names, name)
	}
	// Load order decides dictionary codes and catalog order; keep it fixed.
	sort.Strings(names)
	for _, name := range names {
		args = append(args, "-load", name+"="+csvs[name])
	}
	head, err := startProc("parajoind", bin, gen, args...)
	if err != nil {
		return nil, err
	}
	sv.procs = append(sv.procs, head)
	m, err := head.waitLog(ctx, reServing)
	if err != nil {
		return nil, err
	}
	sv.addr = m[1]
	if !w.dist {
		return sv, nil
	}

	m, err = head.waitLog(ctx, reCoordinating)
	if err != nil {
		return nil, err
	}
	members := memberNames()
	for _, name := range members {
		node, err := startProc(name, bin, gen,
			"-join", m[1], "-node-name", name,
			"-cluster-listen", "127.0.0.1:0",
			"-data-dir", filepath.Join(gen, name))
		if err != nil {
			return nil, err
		}
		sv.procs = append(sv.procs, node)
	}
	formed := regexp.MustCompile(fmt.Sprintf(`serving %d workers for members \[%s\] \(catalog v\d+, distributed execution\)`,
		distMembers, strings.Join(members, " ")))
	if _, err := head.waitLog(ctx, formed); err != nil {
		return nil, err
	}
	return sv, nil
}

// stop ends every child and waits for it. The query-serving process goes
// first: a data node that leaves while its coordinator lives triggers a
// rebalance nobody needs.
func (sv *serving) stop() {
	for _, p := range sv.procs {
		p.stop(3 * time.Second)
	}
	sv.procs = nil
}

func (sv *serving) logs() string {
	var b strings.Builder
	for _, p := range sv.procs {
		text, _ := p.log.snapshot()
		fmt.Fprintf(&b, "---- %s log ----\n%s", p.name, text)
	}
	return b.String()
}

// usage sums CPU time and peak RSS over the server-side processes.
func (sv *serving) usage() (cpu time.Duration, rssBytes int64, err error) {
	for _, p := range sv.procs {
		c, r, err := p.cpuAndPeakRSS()
		if err != nil {
			return 0, 0, err
		}
		cpu += c
		rssBytes += r
	}
	return cpu, rssBytes, nil
}

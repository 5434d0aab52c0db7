package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spserve is one running server process.
type spserve struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer spawns bin with args plus -addr and returns once GET /readyz
// answers 200, with the time from spawn to that answer.
func startServer(bin string, args []string, logPath string) (*spserve, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(append([]string{}, args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &spserve{cmd: cmd, addr: addr, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			return nil, 0, fmt.Errorf("spserve exited before it was ready (%v); see %s", err, logPath)
		default:
		}
		if ready(addr) {
			return s, time.Since(start), nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("spserve not ready after 60s; see %s", logPath)
}

// ready reports whether GET /readyz on addr answers 200.
func ready(addr string) bool {
	c, err := dial(addr)
	if err != nil {
		return false
	}
	defer c.close()
	status, _, err := c.do(getRequest("/readyz"))
	return err == nil && status == 200
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if the drain takes longer than 20 seconds.
func (s *spserve) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *spserve) pid() int { return s.cmd.Process.Pid }

// cpuTime is the user+system CPU the process has used so far, read from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks per second).
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS is the process's peak resident set (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stealTime is the CPU time the hypervisor has taken from this machine
// since boot, summed over its CPUs (the steal column of /proc/stat), or 0
// where it cannot be read.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// processCPU is the user+system CPU this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// measureArg switches perfbench into its helper mode: run one command and
// report its wall time and peak RSS on file descriptor 3.
//
// The helper exists because of how Linux counts a child's peak RSS: the
// parent's high-water mark at the moment of the exec is carried into the
// child's figure. perfbench holds compiled programs and a log corpus in
// memory, so a dragprof started directly from it would report perfbench's
// size, not its own. The helper is a fresh, small process, so the peak it
// reports is the command's own.
const measureArg = "-measure-child"

// procResult is one finished command: its wall time, its peak resident
// set size and what it printed.
type procResult struct {
	wall     time.Duration
	maxRSSKB int64
	stdout   []byte
	stderr   []byte
}

// measureMain is the helper: it runs args, forwards SIGTERM and SIGINT to
// it, writes "<wall ns> <peak RSS KiB>" to fd 3 and exits with the
// command's exit code.
func measureMain(args []string) int {
	report := os.NewFile(3, "report")
	if report == nil || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: "+measureArg+" needs a command and fd 3")
		return 2
	}
	syscall.CloseOnExec(3)
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 127
	}
	forwarded := make(chan struct{})
	go func() {
		defer close(forwarded)
		for s := range sigs {
			_ = cmd.Process.Signal(s) // the child may already have exited
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	signal.Stop(sigs)
	close(sigs)
	<-forwarded
	fmt.Fprintf(report, "%d %d\n", wall.Nanoseconds(), maxRSSKB(cmd.ProcessState))
	report.Close()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if code := exit.ExitCode(); code > 0 {
			return code
		}
		return 1
	}
	return 0
}

// measuredCmd is a command started through the helper.
type measuredCmd struct {
	cmd    *exec.Cmd
	report *os.File
}

// startMeasured starts bin through the helper with the given output
// destinations.
func startMeasured(stdout, stderr io.Writer, bin string, args ...string) (*measuredCmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{measureArg, bin}, args...)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.ExtraFiles = []*os.File{w}
	// Should the benchmark die without stopping it, the command dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		return nil, err
	}
	return &measuredCmd{cmd: cmd, report: r}, nil
}

// wait waits for the command and returns its own wall time and peak RSS.
func (m *measuredCmd) wait() (time.Duration, int64, error) {
	data, rerr := io.ReadAll(m.report)
	m.report.Close()
	err := m.cmd.Wait()
	f := strings.Fields(string(data))
	if len(f) != 2 {
		if err == nil {
			err = fmt.Errorf("no measurement reported (%v)", rerr)
		}
		return 0, 0, err
	}
	ns, err1 := strconv.ParseInt(f[0], 10, 64)
	kb, err2 := strconv.ParseInt(f[1], 10, 64)
	if err == nil {
		err = errors.Join(err1, err2)
	}
	return time.Duration(ns), kb, err
}

// runProc runs a command to completion through the helper. A non-zero
// exit is an error that carries the command's standard error.
func runProc(bin string, args ...string) (procResult, error) {
	var out, errb bytes.Buffer
	m, err := startMeasured(&out, &errb, bin, args...)
	if err != nil {
		return procResult{}, err
	}
	wall, kb, err := m.wait()
	res := procResult{wall: wall, maxRSSKB: kb, stdout: out.Bytes(), stderr: errb.Bytes()}
	if err != nil {
		return res, fmt.Errorf("%s %v: %w: %s", bin, args, err, bytes.TrimSpace(errb.Bytes()))
	}
	return res, nil
}

// maxRSSKB reads the peak resident set size (KiB on Linux) from the
// finished process's resource usage.
func maxRSSKB(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

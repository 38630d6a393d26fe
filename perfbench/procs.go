package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// buildServe compiles cmd/serve into a fresh directory under tmpRoot and
// returns the binary's path. The build runs once per benchmark run and
// is not part of any timed figure.
func buildServe(root, tmpRoot string) (bin, dir string, err error) {
	dir, err = os.MkdirTemp(tmpRoot, "serve-")
	if err != nil {
		return "", "", err
	}
	bin = filepath.Join(dir, "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", "", fmt.Errorf("go build ./cmd/serve: %w\n%s", err, out)
	}
	return bin, dir, nil
}

// syncBuffer is a bytes.Buffer safe for the exec package's copier and a
// concurrent reader.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one launched server process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	addr   string // resolved listen address from the listen line
	stderr syncBuffer
	done   chan struct{} // closed once the process has been waited for
	rssKB  int64         // peak resident set (ru_maxrss) once exited
}

// procSet owns every child process the benchmark starts, so that one
// call stops them all on any exit path.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// start launches bin with args, waits for its listen line and returns
// the process with its resolved address. Children get SIGKILL if the
// benchmark dies without cleaning up.
func (ps *procSet) start(name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sent := false; sc.Scan(); {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addrc <- m[1]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = p.cmd.Wait()
		if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.rssKB = ru.Maxrss
		}
		close(p.done)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %s\n%s", name, p.cmd.ProcessState, p.stderr.String())
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("%s printed no listen line within 60s\n%s", name, p.stderr.String())
	}
}

// stop terminates p (SIGTERM, then SIGKILL after a grace period) and
// waits until it has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll stops every process started so far, newest first (a proxy
// before its shards), and reports any that did not exit.
func (ps *procSet) stopAll() error {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop()
	}
	for _, p := range procs {
		if p.cmd.ProcessState == nil {
			return fmt.Errorf("orphan: %s (pid %d) still running", p.name, p.cmd.Process.Pid)
		}
	}
	return nil
}

// stderrs gathers every live child's captured stderr for a failure report.
func (ps *procSet) stderrs() string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var b bytes.Buffer
	for _, p := range ps.procs {
		if s := p.stderr.String(); s != "" {
			fmt.Fprintf(&b, "--- %s stderr:\n%s", p.name, s)
		}
	}
	return b.String()
}

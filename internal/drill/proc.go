package drill

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// Child describes a long-lived child for Start.
type Child struct {
	Bin  string // a name given to Build
	Args []string
	Env  []string // added to the drill's own environment
	// Quiet keeps the child's stderr off the terminal (replicas under a
	// surge or a kill log every shed and reset); its last 40 lines are
	// shown if the drill fails. Otherwise stderr is passed through.
	Quiet bool
}

// Proc is a started child. URL, Admin and Metrics are the addresses it
// announced for -addr, -admin-addr and -metrics-addr.
type Proc struct {
	URL, Admin, Metrics string

	name   string
	cmd    *exec.Cmd
	done   chan struct{} // closed once the child is reaped; err and stderr are then final
	err    error
	stderr []string // a Quiet child's last lines
}

// String names the child in failure messages.
func (p *Proc) String() string { return strings.TrimSpace(p.name + " " + p.URL) }

// Start starts a child and waits until it has announced on stdout, as
// "<bin>: [admin |metrics ]listening on http://…", a URL for every
// listen flag it was given. A child that prints nothing is killed when
// the wait runs out; one that announced keeps having its stdout drained.
func (d *D) Start(c Child) (*Proc, error) {
	p := &Proc{name: c.Bin, done: make(chan struct{})}
	want := map[string]*string{} // announcement kind -> where its URL goes
	for _, a := range c.Args {
		switch a {
		case "-addr":
			want[""] = &p.URL
		case "-admin-addr":
			want["admin "] = &p.Admin
		case "-metrics-addr":
			want["metrics "] = &p.Metrics
		}
	}
	re := regexp.MustCompile(`^` + regexp.QuoteMeta(c.Bin) + `: (admin |metrics |)listening on (http://\S+)`)
	found := make(chan []string, 3) // one slot per kind of announcement
	p.cmd = exec.CommandContext(d.ctx, d.bin(c.Bin), c.Args...)
	p.cmd.Env = append(os.Environ(), c.Env...)
	p.cmd.Stdout = &lines{fn: func(line string) {
		if m := re.FindStringSubmatch(line); m != nil {
			select {
			case found <- m:
			default: // a child repeating itself must not block on us
			}
		}
	}}
	p.cmd.Stderr = os.Stderr
	if c.Quiet {
		p.cmd.Stderr = &lines{fn: func(line string) {
			if p.stderr = append(p.stderr, line); len(p.stderr) > 40 {
				p.stderr = p.stderr[1:]
			}
		}}
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	d.procs = append(d.procs, p)
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()

	timer := time.NewTimer(d.listen)
	defer timer.Stop()
	for len(want) > 0 {
		var why string
		select {
		case m := <-found:
			if dst := want[m[1]]; dst != nil {
				*dst = m[2]
				delete(want, m[1])
			}
			continue
		case <-p.done:
			why = fmt.Sprintf("exited (%v)", p.err)
		case <-timer.C:
			p.Kill()
			why = fmt.Sprintf("was killed after %v", d.listen)
		}
		var missing []string
		for kind := range want {
			missing = append(missing, c.Bin+": "+kind+"listening on")
		}
		return nil, fmt.Errorf("%s never printed its listen address: it %s without announcing %q", p, why, missing)
	}
	return p, nil
}

// Signal sends sig to the child.
func (p *Proc) Signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }

// Kill SIGKILLs the child — no drain, no goodbye — and reaps it.
func (p *Proc) Kill() error {
	err := p.cmd.Process.Kill()
	<-p.done
	return err
}

// Done is closed once the child has exited; Err is then its exit error.
func (p *Proc) Done() <-chan struct{} { return p.done }
func (p *Proc) Err() error            { return p.err }

// Drain SIGTERMs every child, then requires each to exit cleanly within limit.
func Drain(limit time.Duration, procs ...*Proc) error {
	for _, p := range procs {
		if err := p.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("%s: %v", p, err)
		}
	}
	deadline := time.After(limit)
	for _, p := range procs {
		select {
		case <-p.done:
			if p.err != nil {
				return fmt.Errorf("%s exited uncleanly after SIGTERM: %v", p, p.err)
			}
		case <-deadline:
			return fmt.Errorf("%s did not drain within %v of SIGTERM", p, limit)
		}
	}
	return nil
}

// lines is an io.Writer handing fn each complete line written to it.
type lines struct {
	part []byte
	fn   func(string)
}

func (l *lines) Write(b []byte) (int, error) {
	l.part = append(l.part, b...)
	for {
		i := bytes.IndexByte(l.part, '\n')
		if i < 0 {
			return len(b), nil
		}
		l.fn(string(l.part[:i]))
		l.part = l.part[i+1:]
	}
}

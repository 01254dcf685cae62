package drill

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// The children these tests start are this test binary, re-executed under
// the name a drill would have built and switched into a helper mode by
// DRILL_CHILD; no binary is built.
func TestMain(m *testing.M) {
	if mode := os.Getenv("DRILL_CHILD"); mode != "" {
		child(mode)
	}
	os.Exit(m.Run())
}

// Every mode but "silent" announces a traffic URL once its signal
// handling is in place, so a test that starts it with -addr gets it
// back ready to be signalled.
func child(mode string) {
	name := filepath.Base(os.Args[0])
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	traffic, admin := name+": listening on http://traffic\n", name+": admin listening on http://admin\n"
	switch mode {
	case "silent":
	case "traffic-first", "admin-first":
		if mode == "admin-first" {
			traffic, admin = admin, traffic
		}
		fmt.Print("starting up\n", traffic, admin)
		// More than a pipe holds: this returns only if the parent is
		// still reading.
		fmt.Print(strings.Repeat(strings.Repeat("x", 127)+"\n", 1024))
		os.WriteFile(os.Getenv("DRILL_CHILD_MARK"), nil, 0o644)
	case "noisy":
		for i := 0; i < 50; i++ {
			fmt.Fprintf(os.Stderr, "complaint %d\n", i)
		}
		fmt.Print(traffic)
	case "unclean":
		fmt.Print(traffic)
		<-term
		os.Exit(3)
	case "stubborn":
		signal.Ignore(syscall.SIGTERM)
		fmt.Print(traffic)
	default:
		fmt.Print(traffic)
	}
	<-term
	os.Exit(0)
}

// testD is a D whose built binaries are this test binary.
func testD(t *testing.T, names ...string) *D {
	ctx, cancel := context.WithCancel(context.Background())
	d := &D{Dir: t.TempDir(), name: "testdrill", out: io.Discard, ctx: ctx, listen: 300 * time.Millisecond}
	t.Cleanup(func() {
		cancel()
		for _, p := range d.procs {
			<-p.done
		}
	})
	link(t, d, names...)
	return d
}

func link(t *testing.T, d *D, names ...string) {
	if err := os.MkdirAll(d.bin(""), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if err := os.Symlink(os.Args[0], d.bin(n)); err != nil {
			t.Fatal(err)
		}
	}
}

// dead reports whether p has been reaped and its pid is gone.
func dead(p *Proc) bool {
	select {
	case <-p.done:
		return errors.Is(syscall.Kill(p.cmd.Process.Pid, 0), syscall.ESRCH)
	default:
		return false
	}
}

func TestStartFailsOnSilentChild(t *testing.T) {
	d := testD(t, "serve")
	begin := time.Now()
	p, err := d.Start(Child{Bin: "serve", Args: []string{"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"},
		Env: []string{"DRILL_CHILD=silent"}})
	if err == nil {
		t.Fatalf("Start returned %v for a child that prints nothing", p)
	}
	if took := time.Since(begin); took > 2*time.Second {
		t.Errorf("Start took %v to give up, limit was %v", took, d.listen)
	}
	for _, want := range []string{"serve", `"serve: listening on"`, `"serve: admin listening on"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if !dead(d.procs[0]) {
		t.Error("the silent child was not killed and reaped")
	}
}

func TestStartScrapesBothURLsInEitherOrder(t *testing.T) {
	for _, mode := range []string{"traffic-first", "admin-first"} {
		d := testD(t, "router")
		mark := filepath.Join(d.Dir, "mark")
		p, err := d.Start(Child{Bin: "router", Args: []string{"-admin-addr", ":0", "-addr", ":0"},
			Env: []string{"DRILL_CHILD=" + mode, "DRILL_CHILD_MARK=" + mark}})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if p.URL != "http://traffic" || p.Admin != "http://admin" || p.Metrics != "" {
			t.Errorf("%s: URL %q Admin %q Metrics %q", mode, p.URL, p.Admin, p.Metrics)
		}
		if p.String() != "router http://traffic" {
			t.Errorf("%s: named %q", mode, p)
		}
		// The child writes 128 KB after announcing and marks only once
		// that is through: stdout is still being drained.
		if err := Await(2*time.Second, "child blocked on its stdout", func() (bool, error) {
			_, err := os.Stat(mark)
			return err == nil, nil
		}); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		if err := Drain(2*time.Second, p); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}

func TestSamplesTellAbsentFromZero(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("never_incremented_total", "zero")
	reg.Gauge("some_state", "two").SetInt(2)
	vec := reg.CounterVec("retries_total", "by reason")
	vec.With(`reason="shed"`).Add(3)
	vec.With(`reason="transport"`).Add(4)
	reg.Counter("retries_total_other", "shares the prefix").Add(100)
	var page bytes.Buffer
	reg.WriteTo(&page)
	parsed, err := obs.ParseMetrics(bytes.NewReader(page.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.Error(w, "gone", http.StatusInternalServerError)
			return
		}
		w.Write(page.Bytes())
	}))
	defer srv.Close()

	s, err := Scrape(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range parsed {
		if got, err := s.Value(series); err != nil || got != want {
			t.Errorf("Value(%s) = %v, %v; ParseMetrics has %v", series, got, err, want)
		}
	}
	if v, err := s.Value("never_incremented_total"); v != 0 || err != nil {
		t.Errorf("a series at 0 read %v, %v", v, err)
	}
	if _, err := s.Value("renamed_total"); err == nil || !strings.Contains(err.Error(), "renamed_total") {
		t.Errorf("an absent series must be an error naming it, got %v", err)
	}
	if _, err := s.Value("retries_total"); err == nil {
		t.Error("a labelled family has no bare series")
	}
	if total, n := s.Sum("retries_total"); total != 7 || n != 2 {
		t.Errorf("Sum(retries_total) = %v over %d series, want 7 over 2", total, n)
	}
	if total, n := s.Sum("some_state"); total != 2 || n != 1 {
		t.Errorf("Sum(some_state) = %v over %d series, want 2 over 1", total, n)
	}
	if _, n := s.Sum("renamed_total"); n != 0 {
		t.Errorf("Sum of an absent family found %d series", n)
	}
	if _, err := Scrape(srv.URL + "/elsewhere"); err == nil {
		t.Error("a failed scrape must be an error, not an empty page")
	}
	err = AwaitValue(time.Second, "renamed", srv.URL+"/metrics", "renamed_total", func(float64) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "renamed_total") {
		t.Errorf("AwaitValue on an absent series must fail naming it, got %v", err)
	}
	polls := 0
	err = AwaitValue(time.Second, "state", srv.URL+"/metrics", "some_state", func(v float64) bool {
		polls++
		return v == 2 && polls > 1
	})
	if err != nil || polls != 2 {
		t.Errorf("AwaitValue = %v after %d polls", err, polls)
	}
}

func TestDrainNamesTheChildThatDidNotExitCleanly(t *testing.T) {
	d := testD(t, "serve", "shepherd")
	start := func(bin, mode string) *Proc {
		p, err := d.Start(Child{Bin: bin, Args: []string{"-addr", ":0"}, Env: []string{"DRILL_CHILD=" + mode}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	clean, unclean := start("serve", "clean"), start("shepherd", "unclean")
	err := Drain(2*time.Second, clean, unclean)
	if err == nil || !strings.Contains(err.Error(), "shepherd http://traffic exited uncleanly after SIGTERM: exit status 3") {
		t.Errorf("Drain = %v, want shepherd's exit status 3", err)
	}
	if !dead(clean) || !dead(unclean) {
		t.Error("drained children are not dead")
	}

	err = Drain(200*time.Millisecond, start("serve", "stubborn"))
	if err == nil || !strings.Contains(err.Error(), "serve http://traffic did not drain within 200ms of SIGTERM") {
		t.Errorf("Drain = %v, want serve named as not draining", err)
	}
}

func TestAwaitTimesOutWithWhatWasAwaited(t *testing.T) {
	polls := 0
	err := Await(150*time.Millisecond, "router never readmitted the victim", func() (bool, error) {
		polls++
		return false, nil
	})
	if err == nil || err.Error() != "router never readmitted the victim: timed out after 150ms" {
		t.Errorf("Await = %v", err)
	}
	if polls < 2 {
		t.Errorf("cond polled %d times", polls)
	}
	boom := errors.New("boom")
	if err := Await(time.Minute, "x", func() (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Errorf("an error from cond must end the wait, got %v", err)
	}
}

func TestEveryChildIsDeadAfterExecute(t *testing.T) {
	for _, fail := range []bool{false, true} {
		var started []*Proc
		var dir string
		var stdout, stderr bytes.Buffer
		code := execute("testdrill", func(d *D) error {
			dir = d.Dir
			link(t, d, "serve", "router")
			d.Step("starting children")
			for _, c := range []Child{
				{Bin: "serve", Quiet: true, Args: []string{"-addr", ":0"}, Env: []string{"DRILL_CHILD=noisy"}},
				{Bin: "router", Args: []string{"-addr", ":0"}, Env: []string{"DRILL_CHILD=stubborn"}},
			} {
				p, err := d.Start(c)
				if err != nil {
					return err
				}
				started = append(started, p)
			}
			if fail {
				return errors.New("boom")
			}
			return nil
		}, &stdout, &stderr)

		if len(started) != 2 {
			t.Fatalf("started %d children: %s", len(started), stderr.String())
		}
		for _, p := range started {
			if !dead(p) {
				t.Errorf("fail=%v: %s outlived the drill", fail, p)
			}
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("fail=%v: scratch dir %s was left behind", fail, dir)
		}
		wantOut, wantCode := "testdrill: starting children\ntestdrill: PASS\n", 0
		if fail {
			wantOut, wantCode = "testdrill: starting children\n", 1
		}
		if stdout.String() != wantOut || code != wantCode {
			t.Errorf("fail=%v: exit %d, stdout %q", fail, code, stdout.String())
		}
		// Only a failed drill shows a quiet child's stderr, and only its
		// last 40 lines; the verdict is the last line.
		if !fail {
			if stderr.Len() != 0 {
				t.Errorf("a passing drill wrote to stderr: %s", stderr.String())
			}
			continue
		}
		got := stderr.String()
		if !strings.HasSuffix(got, "testdrill: FAIL: boom\n") {
			t.Errorf("stderr does not end with the verdict: %q", got)
		}
		if !strings.Contains(got, "last stderr lines of serve") || !strings.Contains(got, "complaint 49") ||
			!strings.Contains(got, "complaint 10\n") || strings.Contains(got, "complaint 9\n") {
			t.Errorf("stderr tail of the quiet child is wrong: %q", got)
		}
	}
}

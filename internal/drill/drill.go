// Package drill is the harness the real-binary drills in scripts/
// (servesmoke, corpusdrill, clusterdrill, overloaddrill, shepherddrill)
// are written on. It owns process lifecycle, timeouts and the metrics
// exposition format; a drill is drill.Main(name, run), its steps and its
// assertions. Whatever run starts is dead by the time Main returns.
package drill

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/selector"
)

// D is one drill run: its scratch directory (removed on exit) and every
// child it started.
type D struct {
	Dir string

	name   string
	out    io.Writer
	ctx    context.Context // cancelled on exit: kills every child
	procs  []*Proc
	listen time.Duration // how long Start waits for a child's URLs
}

// Main parses the drill's flags, runs it, prints "<name>: PASS" or
// "<name>: FAIL: <err>" and exits 0 or 1.
func Main(name string, run func(*D) error) {
	flag.Parse()
	os.Exit(execute(name, run, os.Stdout, os.Stderr))
}

func execute(name string, run func(*D) error, stdout, stderr io.Writer) int {
	dir, err := os.MkdirTemp("", name)
	if err == nil {
		ctx, cancel := context.WithCancel(context.Background())
		d := &D{Dir: dir, name: name, out: stdout, ctx: ctx, listen: 30 * time.Second}
		err = run(d)
		cancel()
		for _, p := range d.procs {
			<-p.done
			// A child whose stderr was kept off the terminal explains a
			// failure only if it is shown now.
			if err != nil && len(p.stderr) > 0 {
				fmt.Fprintf(stderr, "%s: last stderr lines of %s:\n\t%s\n", name, p, strings.Join(p.stderr, "\n\t"))
			}
		}
		os.RemoveAll(dir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: FAIL: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: PASS\n", name)
	return 0
}

// Step announces the step the drill is entering.
func (d *D) Step(msg string) { fmt.Fprintf(d.out, "%s: %s\n", d.name, msg) }

// bin is where Build leaves, and Start and Run find, a binary.
func (d *D) bin(name string) string { return filepath.Join(d.Dir, "bin", name) }

// Build compiles ./cmd/<name> for every name with one go build.
func (d *D) Build(names ...string) error {
	args := []string{"build", "-o", d.bin("") + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	if out, err := exec.CommandContext(d.ctx, "go", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("go build %v: %v\n%s", names, err, out)
	}
	return nil
}

// TinyModel trains the toy selector the serving drills share (the full
// Figure 3 pipeline at a scale that takes a second), saves it through
// the checksummed envelope writer and returns it with the file's path.
func (d *D) TinyModel() (*selector.Selector, string, error) {
	res, err := core.Train(core.Options{
		Count: 40, MaxN: 96, Epochs: 2, RepSize: 16, RepBins: 8, Seed: 11,
	})
	if err != nil {
		return nil, "", fmt.Errorf("training: %w", err)
	}
	path := filepath.Join(d.Dir, "model.gob")
	return res.Selector, path, res.Selector.SaveFile(path)
}

// Run runs a built binary to completion with env added to the drill's
// own environment and returns its combined output.
func (d *D) Run(bin string, env []string, args ...string) (string, error) {
	cmd := exec.CommandContext(d.ctx, d.bin(bin), args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// LoadReport is the slice of cmd/loadgen's JSON report the drills read.
type LoadReport struct {
	Requests      int64          `json:"requests"`
	Codes         map[string]int `json:"codes"`
	SuccessRate   float64        `json:"success_rate"`
	P99Ms         float64        `json:"p99_ms"`
	ThroughputRPS float64        `json:"throughput_rps"`
	OfferedRPS    float64        `json:"offered_rps"`
	GoodputRPS    float64        `json:"goodput_rps"`
}

// Loadgen runs one cmd/loadgen pass and parses its report; a pass that
// sent nothing is an error.
func (d *D) Loadgen(args ...string) (*LoadReport, error) {
	path := filepath.Join(d.Dir, "loadgen.json")
	if out, err := d.Run("loadgen", nil, append(args, "-out", path)...); err != nil {
		return nil, fmt.Errorf("loadgen: %v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep LoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("loadgen report: %w", err)
	}
	if rep.Requests == 0 {
		return nil, fmt.Errorf("loadgen sent no requests")
	}
	return &rep, nil
}

// Await polls cond every 100ms until it holds. An error from cond ends
// the wait at once; after limit the wait fails, in both cases as
// "<what>: <why>" — what is the drill's failure message.
func Await(limit time.Duration, what string, cond func() (bool, error)) error {
	deadline := time.Now().Add(limit)
	for {
		ok, err := cond()
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: timed out after %v", what, limit)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Get fetches url and returns the status code and the body.
func Get(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// Ready waits for base/readyz to answer 200.
func Ready(limit time.Duration, base string) error {
	return Await(limit, base+" never became ready", func() (bool, error) {
		code, _, _ := Get(base + "/readyz")
		return code == http.StatusOK, nil
	})
}

// Samples is one parsed scrape of a /metrics page.
type Samples struct{ vals map[string]float64 }

// Scrape fetches and parses a Prometheus text page. A page that cannot
// be fetched or parsed is an error, never an empty set of samples.
func Scrape(url string) (Samples, error) {
	code, page, err := Get(url)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("%s answered %d", url, code)
	}
	if err != nil {
		return Samples{}, err
	}
	vals, err := obs.ParseMetrics(strings.NewReader(page))
	return Samples{vals}, err
}

// Value reports one series, keyed as obs.ParseMetrics keys it (the name
// with its rendered label block, `serve_rung_total{rung="dtree"}`). An
// absent series is an error naming it, never a 0, so a renamed metric
// fails the drill that reads it; a caller for whom absence is
// legitimate says so where it drops the error.
func (s Samples) Value(series string) (float64, error) {
	v, ok := s.vals[series]
	if !ok {
		return 0, fmt.Errorf("the metrics page has no series %s", series)
	}
	return v, nil
}

// Sum totals a family, bare or labelled, and reports how many series it found.
func (s Samples) Sum(family string) (total float64, n int) {
	for series, v := range s.vals {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
			n++
		}
	}
	return total, n
}

// AwaitValue waits until series on the page at url satisfies ok. A
// failed scrape is retried (the server may be mid-reload); a page
// without the series ends the wait.
func AwaitValue(limit time.Duration, what, url, series string, ok func(float64) bool) error {
	return Await(limit, what, func() (bool, error) {
		s, err := Scrape(url)
		if err != nil {
			return false, nil
		}
		v, err := s.Value(series)
		if err != nil {
			return false, err
		}
		return ok(v), nil
	})
}

// Command shiftperf is the repository benchmark. It runs four workloads —
// the checked and the selective Figure-7 suite in process, and a real
// shiftd serving a small and a 4 KiB page over loopback HTTP — checks
// every output, and prints every metric by name with its unit. The
// metric names, units, directions and regression bounds are declared in
// BENCHMARK.json at the repository root; README.md explains them.
//
//	shiftperf                                  every workload, untraced and traced, each in a child process
//	shiftperf -workload serve-index -seed 3    one workload in this process
//	shiftperf -trace 1 -spans spans.json       traced runs only, spans written as a Chrome trace
//	shiftperf -out a.jsonl ...                 append each run's result to a file
//	shiftperf -compare a.jsonl b.jsonl         judge two sets of runs against the bounds
//
// A single-workload run prints its result as one JSON object on the last
// line of standard output and exits 1 when any output was wrong.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// blocks is how many consecutive time blocks a run's window is cut
// into. Every end-to-end timing is the median of its per-block values,
// so a burst of outside load covering a block or two of the window
// (common on a shared host) does not move it.
const blocks = 5

// runCtx is one workload run's settings.
type runCtx struct {
	seed     int64
	window   time.Duration // the measured window (--seconds)
	traced   bool
	spans    *spanLog // non-nil when traced
	buildDir string
	log      io.Writer
}

// workloads are run in this order; BENCHMARK.json records why each was
// chosen and its loop type, rate, connections and window.
var workloads = []struct {
	name string
	run  func(*runCtx) (*outcome, error)
}{
	{"spec-checked", func(c *runCtx) (*outcome, error) { return runSpec(c, true) }},
	{"spec-selective", func(c *runCtx) (*outcome, error) { return runSpec(c, false) }},
	{"serve-index", func(c *runCtx) (*outcome, error) { return runServe(c, indexPage) }},
	{"serve-page4k", func(c *runCtx) (*outcome, error) { return runServe(c, page4k) }},
}

// record is a result line tagged with what produced it: the -out format
// -compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shiftperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "seed for suite round order and exploit positions")
	seconds := fs.Float64("seconds", 10, "measured window of one run, in seconds")
	traceFlag := fs.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: 0 for one workload, both for all)")
	spansPath := fs.String("spans", "", "write traced runs' spans to this file as Chrome trace-event JSON")
	outPath := fs.String("out", "", "append every result, tagged with workload, seed and trace, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition read by -compare")
	buildDir := fs.String("build-dir", ".bench_build", "directory the serve workloads build shiftd into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "shiftperf: -compare takes two result files")
			return 2
		}
		ok, err := runCompare(stdout, *benchPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "shiftperf:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || *traceFlag < -1 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "shiftperf: want -seconds > 0, -trace 0 or 1, and no arguments")
		return 2
	}
	if *name == "" {
		return runAll(stdout, stderr, *seed, *seconds, *traceFlag, *spansPath, *outPath, *buildDir)
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		c := &runCtx{
			seed:     *seed,
			window:   time.Duration(*seconds * float64(time.Second)),
			traced:   *traceFlag == 1,
			buildDir: *buildDir,
			log:      stdout,
		}
		if c.traced {
			c.spans = newSpanLog()
		}
		fmt.Fprintf(stdout, "shiftperf: %s seed=%d seconds=%g trace=%v\n", w.name, c.seed, *seconds, c.traced)
		o, err := w.run(c)
		if err != nil {
			fmt.Fprintf(stderr, "shiftperf: %s: %v\n", w.name, err)
			return 1
		}
		res, err := o.result(c.traced)
		if err != nil {
			fmt.Fprintf(stderr, "shiftperf: %s: %v\n", w.name, err)
			return 1
		}
		if c.traced && *spansPath != "" {
			if err := writeChromeFile(*spansPath, c.spans.chrome(w.name)); err != nil {
				fmt.Fprintln(stderr, "shiftperf:", err)
				return 1
			}
		}
		if *outPath != "" {
			if err := appendRecords(*outPath, []record{{w.name, c.seed, max(*traceFlag, 0), *res}}); err != nil {
				fmt.Fprintln(stderr, "shiftperf:", err)
				return 1
			}
		}
		printTable(stdout, w.name, res)
		if err := writeJSONLine(stdout, res); err != nil {
			fmt.Fprintln(stderr, "shiftperf:", err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "shiftperf: %s: %d of %d operations failed the integrity check\n", w.name, res.Failed, res.Attempted)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "shiftperf: unknown workload %q\n", *name)
	return 2
}

// runAll runs every workload in its own child process (so peak RSS and
// GC state do not carry over), untraced then traced unless trace picks
// one, and prints each child's metrics.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, trace int, spansPath, outPath, buildDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "shiftperf:", err)
		return 1
	}
	traces := []int{0, 1}
	if trace >= 0 {
		traces = []int{trace}
	}
	status := 0
	var records []record
	var events []chromeEvent
	parts := 0 // spans files merged, numbering their process rows
	for _, w := range workloads {
		for _, tr := range traces {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(tr), "-build-dir", buildDir}
			part := ""
			if tr == 1 && spansPath != "" {
				part = spansPath + "." + w.name
				args = append(args, "-spans", part)
			}
			var out bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &out, stderr
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			runErr := cmd.Run()
			res, perr := lastResult(out.Bytes())
			if perr != nil {
				fmt.Fprintf(stderr, "shiftperf: %s trace=%d: %v (%v)\n", w.name, tr, perr, runErr)
				status = 1
				continue
			}
			if runErr != nil {
				status = 1
			}
			printTable(stdout, w.name, res)
			records = append(records, record{w.name, seed, tr, *res})
			if part != "" {
				evs, err := readChromeFile(part)
				if err != nil {
					fmt.Fprintln(stderr, "shiftperf:", err)
					status = 1
					continue
				}
				parts++
				for i := range evs {
					evs[i].PID = parts
				}
				events = append(events, evs...)
				_ = os.Remove(part)
			}
		}
	}
	if spansPath != "" {
		if err := writeChromeFile(spansPath, events); err != nil {
			fmt.Fprintln(stderr, "shiftperf:", err)
			status = 1
		}
	}
	if outPath != "" {
		if err := appendRecords(outPath, records); err != nil {
			fmt.Fprintln(stderr, "shiftperf:", err)
			status = 1
		}
	}
	return status
}

// lastResult parses the JSON result on the last non-empty line.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &r, nil
}

// appendRecords appends one JSON line per record to path.
func appendRecords(path string, recs []record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := writeJSONLine(f, r); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}

// readRecords loads a file appendRecords wrote.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

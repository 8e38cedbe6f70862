// Command benchmark is the repository's one fixed benchmark: five named
// workloads, end-to-end metrics measured untraced over fresh-service
// reps, and a traced pass that prices every layer from outside. See
// README.md beside this file, and BENCHMARK.json at the repository root
// for the declared metrics and bounds.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

// goldenSeed is the seed whose settled books golden.json pins.
const goldenSeed = 27

// workloadReport is one workload's section of the result file.
type workloadReport struct {
	Drivers int `json:"drivers"`
	Orders  int `json:"orders"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`

	Reps          int     `json:"reps,omitempty"`
	DecideSamples []int   `json:"decide_samples_per_rep,omitempty"`
	GenLagMsMax   float64 `json:"gen_lag_ms_max,omitempty"`

	EndToEnd map[string]metricOut `json:"end_to_end,omitempty"`
	PerLayer map[string]metricOut `json:"per_layer,omitempty"`
	Books    *books               `json:"books,omitempty"`
	Errors   []string             `json:"errors,omitempty"`
}

// report is the result file: enough about the host and the run to
// judge a number without re-running it.
type report struct {
	Schema     string                     `json:"schema"`
	GoVersion  string                     `json:"go_version"`
	NumCPU     int                        `json:"num_cpu"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	MinReps    int                        `json:"min_reps"`
	Smoke      bool                       `json:"smoke,omitempty"`
	WALFS      string                     `json:"wal_fs"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

// resultLine is the contract's last line of a pass.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type options struct {
	seed         int64
	seconds      float64
	reps         int
	trace        int // 0 untraced only, 1 traced only, -1 both
	smoke        bool
	traceOut     string
	updateGolden string
}

func main() {
	var o options
	var names, out, cpuProfile, memProfile string
	var compare bool
	flag.Int64Var(&o.seed, "seed", goldenSeed, "workload seed: the same seed gives the same inputs")
	flag.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all five)")
	flag.Float64Var(&o.seconds, "seconds", 0, "time budget of the untraced reps per workload (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.reps, "reps", 3, "fewest untraced reps per workload, whatever the time budget")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced pass only; 1: traced pass only; default both")
	flag.BoolVar(&o.smoke, "smoke", false, "sub-second sizes: hundreds of drivers and orders per workload")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to <file>.<workload>.json")
	flag.StringVar(&o.updateGolden, "update-golden", "", "write the settled books of this run (seed 27, full size) to this golden.json")
	flag.StringVar(&out, "out", "", "write the result file here")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run")
	flag.StringVar(&memProfile, "memprofile", "", "write an allocation profile at exit")
	flag.BoolVar(&compare, "compare", false, "compare two result files (arguments: parent.json change.json) under the declared bounds")
	flag.Parse()

	// run.sh starts the binary at the root of the checkout.
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
		if o.smoke {
			o.seconds = 0 // the minimum reps are enough to exercise everything
		}
	}

	var selected []workload
	for _, w := range workloads(o.smoke) {
		if names == "" || slices.Contains(strings.Split(names, ","), w.name) {
			selected = append(selected, w)
		}
	}
	if want := len(strings.Split(names, ",")); names != "" && len(selected) != want {
		fatal(fmt.Errorf("-workload %q names an unknown workload", names))
	}

	// The configuration must not change with the host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	rep, ok := runAll(spec, selected, o)
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			fatal(err)
		}
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if !ok {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs the selected workloads and passes, printing each pass's
// metrics by name and then its result line. ok is false if any check
// failed.
func runAll(spec *benchSpec, selected []workload, o options) (*report, bool) {
	rep := &report{
		Schema: "ridebench/v1", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds, MinReps: o.reps,
		Smoke: o.smoke, WALFS: fsTypeOf(os.TempDir()), Workloads: map[string]*workloadReport{},
	}
	var golden map[string]books
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fatal(fmt.Errorf("golden.json: %w", err))
	}
	ok := true
	for _, w := range selected {
		d, err := generateDay(w, o.seed)
		if err != nil {
			fatal(err)
		}
		wr := &workloadReport{Drivers: w.drivers, Orders: w.orders, Correct: true}
		rep.Workloads[w.name] = wr
		finish := func(kind string, p *passResult, metrics *map[string]metricOut) {
			p.errs = append(p.errs, p.metrics.errs...)
			for _, name := range p.metrics.missing() {
				p.errs = append(p.errs, "metric not emitted: "+name)
			}
			if want, pinned := golden[w.name]; pinned && p.books != nil && o.seed == goldenSeed && !o.smoke &&
				o.updateGolden == "" && !p.books.equal(want) {
				p.errs = append(p.errs, fmt.Sprintf("settled %+v, golden.json pins %+v: decisions changed", *p.books, want))
			}
			*metrics = p.metrics.out
			if p.books != nil {
				wr.Books = p.books
			}
			wr.Attempted += p.attempted
			wr.Failed += p.failed
			wr.Errors = append(wr.Errors, p.errs...)
			wr.GenLagMsMax = max(wr.GenLagMsMax, p.genLagMsMax)
			correct := len(p.errs) == 0 && p.failed == 0
			wr.Correct = wr.Correct && correct
			ok = ok && correct
			printPass(w.name, kind, p, correct)
		}
		if o.trace != 1 {
			p := untracedPass(d, spec, o.seconds, o.reps)
			wr.Reps, wr.DecideSamples = p.reps, p.decideSamples
			finish("untraced", p, &wr.EndToEnd)
		}
		if o.trace != 0 {
			p := tracedPass(d, spec)
			finish("traced", p, &wr.PerLayer)
			if o.traceOut != "" && p.spans != nil {
				if err := writeSpans(fmt.Sprintf("%s.%s.json", o.traceOut, w.name), p.spans); err != nil {
					fatal(err)
				}
			}
		}
		if wr.Books != nil {
			golden[w.name] = *wr.Books
		}
	}
	if o.updateGolden != "" {
		if o.seed != goldenSeed || o.smoke || !ok {
			fatal(fmt.Errorf("-update-golden needs a passing full-size run at -seed %d", goldenSeed))
		}
		if err := writeJSON(o.updateGolden, golden); err != nil {
			fatal(err)
		}
	}
	return rep, ok
}

// printPass prints every metric of the pass by name with its unit, the
// failed checks, and last the contract's result line.
func printPass(workload, kind string, p *passResult, correct bool) {
	names := make([]string, 0, len(p.metrics.out))
	for name := range p.metrics.out {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s %s", workload, kind)
	if p.reps > 0 {
		fmt.Printf(" (%d reps)", p.reps)
	}
	fmt.Println()
	for _, name := range names {
		mo := p.metrics.out[name]
		fmt.Printf("%-16s %-34s %14.6g %s\n", workload, name, mo.Value, mo.Unit)
	}
	for _, e := range p.errs {
		fmt.Printf("%-16s CHECK FAILED: %s\n", workload, e)
	}
	line := resultLine{Correct: correct, Attempted: max(1, p.attempted), Failed: p.failed, Metrics: map[string]metricOut{}}
	for name, mo := range p.metrics.out {
		line.Metrics[name] = metricOut{Value: mo.Value, Unit: mo.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// Command perfbench is the wcmd benchmark: a single-process, open-loop load
// generator that drives a real wcmd binary over loopback TCP with one of
// three seeded workloads, checks every answer against an oracle, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer ledger)
// as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload read_mostly --seed 7 --seconds 16 --trace 0
//
// run.sh builds wcmd and this program from the checkout and passes -wcmd
// and -workdir; everything a run writes stays under -workdir.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	wcmd     string
	workdir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: ingest_durable, read_mostly or bursty_tenants")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 16, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer ledger")
	flag.StringVar(&o.wcmd, "wcmd", "", "wcmd binary built from the commit under test")
	flag.StringVar(&o.workdir, "workdir", "", "directory for data dirs, logs and span dumps")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env records what the numbers were measured on.
type env struct {
	Workload       string    `json:"workload"`
	Seed           uint64    `json:"seed"`
	Seconds        int       `json:"seconds"`
	Trace          bool      `json:"trace"`
	NumCPU         int       `json:"num_cpu"`
	GenGOMAXPROCS  int       `json:"gen_gomaxprocs"`
	WcmdGOMAXPROCS int       `json:"wcmd_gomaxprocs"`
	GoVersion      string    `json:"go_version"`
	GitCommit      string    `json:"git_commit"`
	WcmdFlags      []string  `json:"wcmd_flags"`
	Connections    int       `json:"connections"`
	NominalRPS     float64   `json:"nominal_rps"`
	LimitMs        float64   `json:"latency_limit_ms"`
	Ladder         []float64 `json:"ladder"`
}

// gitCommit is the commit the benchmark was built from, as the Go toolchain
// stamped it ("unknown" when the checkout is not a git repository).
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

// wcmdGOMAXPROCS is the GOMAXPROCS wcmd starts with: it inherits the
// environment, and Go defaults to the CPU count.
func wcmdGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

func run(o options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.wcmd == "" || o.workdir == "" || o.seconds < 1 {
		return errors.New("need -wcmd, -workdir and -seconds ≥ 1")
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{o: o, w: w, dir: dir, nconn: runtime.NumCPU()}
	b.env = env{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GenGOMAXPROCS: runtime.GOMAXPROCS(0), WcmdGOMAXPROCS: wcmdGOMAXPROCS(),
		GoVersion: runtime.Version(), GitCommit: gitCommit(), Connections: b.nconn,
		NominalRPS: w.totalRate(), LimitMs: w.limitMs, Ladder: w.ladder,
	}
	defer b.shutdown()
	var v verdict
	var report map[string]any
	if o.trace {
		v, report, err = b.traced()
	} else {
		v, report, err = b.untraced()
	}
	if err != nil {
		return err
	}
	report["env"] = b.env
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for k, m := range v.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	out, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// bench is one run's state: the wcmd process under test and the client.
type bench struct {
	o     options
	w     *workload
	dir   string
	nconn int
	env   env
	proc  *wcmdProc
	cl    *client
	g     *generator
	setup int // set-up attempts so far, for fresh data dirs
}

func (b *bench) shutdown() {
	if b.cl != nil {
		b.cl.close()
	}
	if b.proc != nil {
		b.proc.kill()
		b.proc = nil
	}
}

func (b *bench) dataDir(i int) string { return filepath.Join(b.dir, fmt.Sprintf("data-%d", i)) }

func (b *bench) wcmdArgs(dataDir string) []string {
	args := append([]string(nil), b.w.flags...)
	if b.w.durable {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// setUp starts a fresh wcmd, prefills it and warms it up, and returns the
// time all of that took. The generator and client it builds replace the
// bench's, so the last set-up is the one measured.
func (b *bench) setUp() (time.Duration, error) {
	b.shutdown()
	g, err := newGenerator(b.w, b.o.seed, b.nconn)
	if err != nil {
		return 0, err
	}
	dd := b.dataDir(b.setup)
	b.setup++
	args := b.wcmdArgs(dd)
	b.env.WcmdFlags = args
	p, boot, err := startWcmd(b.o.wcmd, args, filepath.Join(b.dir, "wcmd.log"))
	if err != nil {
		return 0, err
	}
	b.proc, b.g = p, g
	b.cl = newClient(g, p.addr, b.nconn)
	t0 := time.Now()
	for _, sched := range [][][]op{g.prefill(), g.schedule(1, 0, b.w.warmup)} {
		for _, r := range b.cl.run(sched, time.Hour) {
			if r.out != outOK && r.out != outRefused && r.out != outDegraded {
				return 0, fmt.Errorf("set-up %s request failed (outcome %d)", kindNames[r.kind], r.out)
			}
		}
	}
	return boot + time.Since(t0), nil
}

// restart kills wcmd with SIGKILL and boots it again over dataDir (the
// crashed directory itself, or a copy), returning the boot time.
func (b *bench) restart(dataDir string) (time.Duration, error) {
	if b.proc != nil {
		b.proc.kill()
		b.proc = nil
	}
	p, boot, err := startWcmd(b.o.wcmd, b.wcmdArgs(dataDir), filepath.Join(b.dir, "wcmd.log"))
	if err != nil {
		return 0, err
	}
	b.proc = p
	b.cl.retarget(p.addr)
	return boot, nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error { //nolint:errcheck // a missing dir sums to 0
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// Command simbisect finds the first cycle at which two simulator runs
// diverge, and the first component whose state differs there. Both
// runs execute the same workload; each side is either an in-process
// variant described by -a/-b key=value overrides, or an external
// gpusim-compatible command (-exec-a/-exec-b) probed via its
// -digest-at flag. Because the simulator is deterministic, state
// digests disagree from the first divergent cycle onward, so a binary
// search over replays pinpoints it in O(log N) probes.
//
// Examples:
//
//	simbisect -workload sgemm -a scheme=replay-queue -b scheme=operand-log
//	simbisect -workload stencil -b perturb=5000:cache.l2
//	simbisect -workload sgemm -ckpt-a runA.ckpts -ckpt-b runB.ckpts -b chaos-level=2
//	simbisect -exec-a "./gpusim-good -workload bfs" -exec-b "./gpusim-bad -workload bfs"
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gpues/internal/bisect"
	"gpues/internal/chaos"
	"gpues/internal/config"
	"gpues/internal/obs"
	"gpues/internal/sim"
	"gpues/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "sgemm", "workload both runs execute")
		scale    = flag.Int("scale", 1, "dataset scale factor")
		aSpec    = flag.String("a", "", "run A overrides: comma-separated key=value (scheme, link, paging, lazy, switching, local, log-kb, chaos-level, chaos-seed, perturb=cycle:component)")
		bSpec    = flag.String("b", "", "run B overrides, same syntax as -a")
		execA    = flag.String("exec-a", "", "probe run A via this gpusim command line instead of in-process")
		execB    = flag.String("exec-b", "", "probe run B via this gpusim command line instead of in-process")
		lo       = flag.Int64("lo", 0, "lower bound cycle (runs must agree here)")
		hi       = flag.Int64("hi", -1, "upper bound cycle, -1 = run to completion")
		ckptA    = flag.String("ckpt-a", "", "run A checkpoint directory; with -ckpt-b, raises -lo to the nearest shared agreeing checkpoint")
		ckptB    = flag.String("ckpt-b", "", "run B checkpoint directory (see -ckpt-a)")
		window   = flag.Int("trace-window", 16, "print this many trace events leading up to the divergence (in-process runs only, 0 = off)")
	)
	flag.Parse()

	lower := *lo
	if *ckptA != "" || *ckptB != "" {
		if *ckptA == "" || *ckptB == "" {
			fatal(fmt.Errorf("-ckpt-a and -ckpt-b must be given together"))
		}
		shared, err := bisect.NearestShared(*ckptA, *ckptB)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("nearest shared checkpoint: cycle %d\n", shared)
		if shared > lower {
			lower = shared
		}
	}

	var vb *variant
	runnerA, _, err := makeRunner(*execA, *aSpec, *workload, *scale)
	if err != nil {
		fatal(fmt.Errorf("run A: %w", err))
	}
	runnerB, vbTmp, err := makeRunner(*execB, *bSpec, *workload, *scale)
	if err != nil {
		fatal(fmt.Errorf("run B: %w", err))
	}
	vb = vbTmp

	rep, err := bisect.FirstDivergence(runnerA, runnerB, lower, *hi)
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	if !rep.Diverged {
		return
	}
	fmt.Printf("  run A stopped at cycle %d (done=%v), run B at %d (done=%v)\n",
		rep.A.Cycle, rep.A.Done, rep.B.Cycle, rep.B.Done)

	if *window > 0 && vb != nil {
		if err := printTraceWindow(vb, *workload, *scale, rep.FirstCycle, *window); err != nil {
			fmt.Fprintf(os.Stderr, "trace window: %v\n", err)
		}
	}
	os.Exit(1) // divergence found: non-zero, like cmp/diff
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbisect:", err)
	os.Exit(2)
}

// variant is one in-process run configuration.
type variant struct {
	cfg        config.Config
	place      workloads.Placement
	chaosLevel int
	chaosSeed  int64
	perturbs   []perturb
}

type perturb struct {
	cycle     int64
	component string
}

// makeRunner builds one side's Runner: an ExecRunner when execCmd is
// set, otherwise an in-process SimRunner from the override spec. The
// returned variant is non-nil only for in-process runs.
func makeRunner(execCmd, spec, workload string, scale int) (bisect.Runner, *variant, error) {
	if execCmd != "" {
		if spec != "" {
			return nil, nil, fmt.Errorf("-exec-* and in-process overrides are mutually exclusive")
		}
		return bisect.ExecRunner{Argv: strings.Fields(execCmd)}, nil, nil
	}
	v, err := parseVariant(spec)
	if err != nil {
		return nil, nil, err
	}
	return bisect.SimRunner{Build: v.build(workload, scale)}, v, nil
}

// parseVariant applies comma-separated key=value overrides to the
// default configuration.
func parseVariant(spec string) (*variant, error) {
	v := &variant{cfg: config.Default(), place: workloads.Resident(), chaosSeed: 1}
	if spec == "" {
		return v, nil
	}
	for _, item := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("override %q is not key=value", item)
		}
		if err := v.apply(key, val); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func (v *variant) apply(key, val string) error {
	switch key {
	case "scheme":
		s, err := config.ParseScheme(val)
		if err != nil {
			return err
		}
		v.cfg.Scheme = s
	case "link":
		l, err := config.ParseLink(val)
		if err != nil {
			return err
		}
		v.cfg.Link = l
	case "paging":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("paging: %v", err)
		}
		v.cfg.DemandPaging = b
		if b {
			v.place = workloads.DemandPaging()
		}
	case "lazy":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("lazy: %v", err)
		}
		if b {
			v.place = workloads.LazyOutput()
		}
	case "switching":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("switching: %v", err)
		}
		v.cfg.Scheduler.Enabled = b
	case "local":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("local: %v", err)
		}
		v.cfg.Local.Enabled = b
	case "log-kb":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("log-kb: %v", err)
		}
		v.cfg.SM.OperandLog.SizeKB = n
	case "chaos-level":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 || n > 3 {
			return fmt.Errorf("chaos-level %q must be an integer in [0,3]", val)
		}
		v.chaosLevel = n
	case "chaos-seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("chaos-seed: %v", err)
		}
		v.chaosSeed = n
	case "perturb":
		cycleStr, comp, ok := strings.Cut(val, ":")
		if !ok {
			return fmt.Errorf("perturb %q is not cycle:component", val)
		}
		cycle, err := strconv.ParseInt(cycleStr, 10, 64)
		if err != nil || cycle < 0 {
			return fmt.Errorf("perturb cycle %q must be a non-negative integer", cycleStr)
		}
		v.perturbs = append(v.perturbs, perturb{cycle: cycle, component: comp})
	default:
		return fmt.Errorf("unknown override key %q", key)
	}
	return nil
}

// newSim builds a fresh, fully wired simulator for the variant; tr may
// be nil.
func (v *variant) newSim(workload string, scale int, tr *obs.Tracer) (*sim.Simulator, error) {
	spec, err := workloads.Build(workload, workloads.Params{Scale: scale, Placement: v.place})
	if err != nil {
		return nil, err
	}
	s, err := sim.New(v.cfg, spec)
	if err != nil {
		return nil, err
	}
	if v.chaosLevel > 0 {
		plan, err := chaos.ForLevel(v.chaosLevel, v.chaosSeed)
		if err != nil {
			return nil, err
		}
		s.AttachChaos(plan)
	}
	if tr != nil {
		s.AttachTracer(tr)
	}
	for _, p := range v.perturbs {
		if err := s.InjectDivergence(p.cycle, p.component); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (v *variant) build(workload string, scale int) func() (*sim.Simulator, error) {
	return func() (*sim.Simulator, error) { return v.newSim(workload, scale, nil) }
}

// printTraceWindow replays run B once more with a flight-recorder
// tracer to the divergence cycle and prints the trailing events — the
// activity leading into the first divergent state.
func printTraceWindow(v *variant, workload string, scale int, cycle int64, n int) error {
	tr := obs.New(obs.Options{})
	s, err := v.newSim(workload, scale, tr)
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	if _, err := s.StepTo(cycle); err != nil {
		return err
	}
	events := tr.LastN(n)
	fmt.Printf("  last %d trace events of run B before cycle %d:\n", len(events), cycle)
	for _, e := range events {
		fmt.Printf("    %s\n", e)
	}
	return nil
}

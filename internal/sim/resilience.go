// Resilience trials: run a launch under deterministic bit-flip
// injection and classify what the flips did to it. The classifier is
// the contract of the campaign — every trial lands in exactly one
// outcome class, and because the injector, the simulator, and the
// functional oracle are all deterministic, reruns of the same
// (config, spec, seed) reproduce the classification bit for bit.
package sim

import (
	"errors"
	"fmt"

	"gpues/internal/config"
	"gpues/internal/emu"
	"gpues/internal/excep"
)

// TrialOptions bounds one resilience trial.
type TrialOptions struct {
	// MaxCycles caps the timing run (0 keeps the simulator default);
	// trials that exceed the cap classify as hangs.
	MaxCycles int64
	// MaxWarpInsts caps functional emulation per warp (0 keeps the
	// emulator default); a flipped loop bound then hangs functionally
	// instead of running for the full default budget.
	MaxWarpInsts int
	// MaxMismatches caps the recorded SDC evidence (0 = the chaos
	// oracle's default cap).
	MaxMismatches int
}

// Trial is one classified flip-injection run.
type Trial struct {
	Outcome excep.Outcome
	// Flips is the number of architectural bit flips injected.
	Flips int64
	// Cycles is the simulated cycle the trial ended at.
	Cycles int64
	// Excep is the structured device exception for OutcomeException.
	Excep *excep.Error
	// Err is the terminal error behind crash and hang outcomes.
	Err error
	// Mismatches is the capped list of corrupted result bytes behind
	// OutcomeSDC.
	Mismatches []emu.Mismatch
}

// RunResilienceTrial runs cfg/spec once — cfg.Excep.Flip chooses the
// flip seed, rate, and thread protection — and classifies the outcome:
//
//	masked     completed, memory byte-identical to the clean oracle
//	sdc        completed, memory differs (silent data corruption)
//	exception  terminated by a device-raised exception
//	hang       stopped making progress (watchdog, cycle cap, deadlock,
//	           or functional non-termination)
//	crash      any other terminal failure
//
// The oracle is a fresh flip-free functional execution of the grid
// from the initial memory image, so masked-vs-SDC is exact, not
// heuristic.
func RunResilienceTrial(cfg config.Config, spec LaunchSpec, opt TrialOptions) (*Trial, error) {
	if spec.Memory == nil {
		return nil, fmt.Errorf("sim: launch spec needs memory")
	}
	snapshot := spec.Memory.Clone()
	s, err := New(cfg, spec)
	if err != nil {
		return nil, err
	}
	if opt.MaxCycles > 0 {
		s.MaxCycles = opt.MaxCycles
	}
	if opt.MaxWarpInsts > 0 {
		s.stream.emul.MaxWarpInsts = opt.MaxWarpInsts
	}
	r, runErr := s.Run()
	if r == nil {
		r = s.Collect()
	}
	t := &Trial{Flips: r.Flips, Cycles: r.Cycles, Err: runErr}
	if runErr == nil {
		maxMis := opt.MaxMismatches
		if maxMis <= 0 {
			maxMis = maxOracleMismatches
		}
		oracle, oerr := oracleMemory(spec.Launch, snapshot, cfg.SM.L1LineB)
		if oerr != nil {
			return nil, fmt.Errorf("sim: functional oracle failed: %w", oerr)
		}
		t.Mismatches = spec.Memory.Diff(oracle, maxMis)
		if len(t.Mismatches) == 0 {
			t.Outcome = excep.OutcomeMasked
		} else {
			t.Outcome = excep.OutcomeSDC
		}
		return t, nil
	}
	var ee *excep.Error
	var he *emu.HangError
	var se *StallError
	switch {
	case errors.As(runErr, &ee):
		t.Outcome = excep.OutcomeException
		t.Excep = ee
	case errors.As(runErr, &he):
		t.Outcome = excep.OutcomeHang
	case errors.As(runErr, &se) && stallIsHang(se.Report.Reason):
		t.Outcome = excep.OutcomeHang
	default:
		t.Outcome = excep.OutcomeCrash
	}
	return t, nil
}

// stallIsHang separates non-termination stall reasons from structural
// failures: the former are the hang class, the latter crashes.
func stallIsHang(reason string) bool {
	switch reason {
	case "watchdog", "max-cycles", "deadlock":
		return true
	}
	return false
}

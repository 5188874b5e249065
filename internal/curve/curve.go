// Package curve models the from-scratch pretraining trajectory of Figure 11:
// avg_lddt_ca as a function of optimizer step, with the paper's two-phase
// schedule — global batch size 128 on 1056 H100 GPUs until the 0.8 target is
// crossed within the first 5000 steps, then global batch 256 on 2080 GPUs
// (with the Triton MHA kernel disabled, per §4.2) until avg_lddt_ca reaches
// 0.9 at 50k–60k steps, in under 10 hours.
//
// The trajectory is a saturating-exponential fit to the published curve;
// the *metric pipeline itself* (lDDT-Cα on real predicted structures) is
// exercised for real by package train — see the quickstart example and
// train's tests, which train the miniature model and watch the same metric
// rise.
package curve

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/rng"
)

// Schedule describes the two-phase pretraining run.
type Schedule struct {
	// SwitchStep is where global batch size changes from 128 to 256 (5000).
	SwitchStep int
	// TargetInitial is the avg_lddt_ca that must be exceeded before
	// SwitchStep (0.8); TargetFinal ends the pretraining (0.9).
	TargetInitial, TargetFinal float64
	// StepTimeGBS128 and StepTimeGBS256 are the per-step wall times in the
	// two phases (from the cluster simulator).
	StepTimeGBS128, StepTimeGBS256 time.Duration
	// Noise adds measurement jitter to the curve (0 = smooth).
	Noise float64
	Seed  int64
}

// PaperSchedule returns the published configuration with step times taken
// from the Figure 7 simulation (DAP-8 on H100).
func PaperSchedule(stepGBS128, stepGBS256 time.Duration) Schedule {
	return Schedule{
		SwitchStep:     5000,
		TargetInitial:  0.80,
		TargetFinal:    0.90,
		StepTimeGBS128: stepGBS128,
		StepTimeGBS256: stepGBS256,
		Noise:          0.004,
		Seed:           1,
	}
}

// curve parameters: lddt(s) = ceiling − (ceiling−floor)·exp(−s/τ).
// Phase 1 (GBS 128) climbs fast from the random-init floor; phase 2
// (GBS 256) continues from the phase-1 endpoint toward a slightly higher
// ceiling with a longer time constant, crossing 0.9 near 52k steps.
const (
	floorLDDT = 0.18
	ceil1     = 0.845
	tau1      = 1450.0
	ceil2     = 0.915
	tau2      = 25200.0
)

// LDDTAt returns the modeled avg_lddt_ca after `step` optimizer steps.
func (s Schedule) LDDTAt(step int) float64 {
	var v float64
	if step <= s.SwitchStep {
		v = ceil1 - (ceil1-floorLDDT)*math.Exp(-float64(step)/tau1)
	} else {
		start := ceil1 - (ceil1-floorLDDT)*math.Exp(-float64(s.SwitchStep)/tau1)
		v = ceil2 - (ceil2-start)*math.Exp(-float64(step-s.SwitchStep)/tau2)
	}
	if s.Noise > 0 {
		v += rand.New(rng.New(s.Seed*92821+int64(step))).NormFloat64() * s.Noise
	}
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// Point is one sample of the Figure 11 curve.
type Point struct {
	Step int
	GBS  int
	LDDT float64
}

// Curve samples the trajectory every `every` steps up to maxStep.
func (s Schedule) Curve(every, maxStep int) []Point {
	var out []Point
	for st := 0; st <= maxStep; st += every {
		gbs := 128
		if st > s.SwitchStep {
			gbs = 256
		}
		out = append(out, Point{Step: st, GBS: gbs, LDDT: s.LDDTAt(st)})
	}
	return out
}

// StepsToTarget returns the first step at which the smooth (noise-free)
// curve reaches target.
func (s Schedule) StepsToTarget(target float64) int {
	smooth := s
	smooth.Noise = 0
	for st := 0; st <= 200000; st += 10 {
		if smooth.LDDTAt(st) >= target {
			return st
		}
	}
	return -1
}

// Result summarizes a pretraining run.
type Result struct {
	StepsPhase1 int // steps run at GBS 128
	StepsTotal  int // total steps to TargetFinal
	WallTime    time.Duration
	MetInitial  bool // crossed TargetInitial before SwitchStep
}

// Pretrain computes the end-to-end pretraining outcome: whether the 0.8
// gate is met in phase 1, how many steps the whole run needs, and the wall
// time under the two phase step times.
func (s Schedule) Pretrain() Result {
	toInitial := s.StepsToTarget(s.TargetInitial)
	total := s.StepsToTarget(s.TargetFinal)
	r := Result{
		StepsPhase1: s.SwitchStep,
		StepsTotal:  total,
		MetInitial:  toInitial >= 0 && toInitial <= s.SwitchStep,
	}
	if total < 0 {
		return r
	}
	phase2 := total - s.SwitchStep
	if phase2 < 0 {
		phase2 = 0
		r.StepsPhase1 = total
	}
	r.WallTime = time.Duration(r.StepsPhase1)*s.StepTimeGBS128 + time.Duration(phase2)*s.StepTimeGBS256
	return r
}

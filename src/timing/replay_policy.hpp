/**
 * @file
 * Razor-style replay policy for the timing-speculative datapath: the
 * logic-side mirror of resilience::ResiliencePolicy. A detected
 * timing violation is replayed at a slower issue rate under a bounded
 * budget; per-stage EWMA monitors watch the violation rate and, on a
 * crossing, escalate the standing logic voltage up a ladder that ends
 * at the model's safe fallback rail — replay, then step-up, then
 * graceful fallback (DESIGN.md §13).
 */

#ifndef VBOOST_TIMING_REPLAY_POLICY_HPP
#define VBOOST_TIMING_REPLAY_POLICY_HPP

#include <string>

#include "common/escalation.hpp"
#include "common/units.hpp"

namespace vboost::timing {

/** Tunable knobs of the timing-speculative execution pipeline. */
struct ReplayPolicy
{
    /** False = worst-case-clocked baseline: the clock stretches to
     *  the guardbanded datapath delay, no violations occur, and no
     *  detection/replay machinery exists. */
    bool speculative = true;

    /** Replay issues after the first (0 = detect-only: a violation
     *  immediately commits a corrupted result). */
    int replayBudget = 3;

    /** Standing-voltage response to monitor crossings: Hold keeps the
     *  voltage (replays alone absorb the error rate), StepUp raises it
     *  one ladder rung per crossing, MaxOut jumps straight to the safe
     *  fallback rail on the first crossing. */
    Escalation escalation = Escalation::StepUp;

    /** Replay issues run this many clock periods per issue (half-rate
     *  reissue doubles the timing slack of the replay). */
    double replaySlowdown = 2.0;

    /** EWMA smoothing factor of the per-stage violation monitors. */
    double ewmaAlpha = 0.02;

    /** Per-stage EWMA violation rate that triggers an escalation.
     *  Well above the replay-absorbable trickle, so only a standing
     *  mis-set voltage moves the rail. */
    double raiseThreshold = 0.05;

    /** Voltage increment of one escalation-ladder rung. */
    Volt stepSize{0.02};

    /** Path-spread sigmas of margin the worst-case baseline clocks
     *  for (and the safe rail is derived from). */
    double guardbandSigmas = 4.0;

    /** Residual per-op error probability accepted at the safe rail. */
    double safeResidual = 1e-12;

    /** Upper bound on issues per op (first try + replays); fixes the
     *  per-op hash stream layout like ResiliencePolicy::kMaxAttempts
     *  fixes the per-access RNG layout. */
    static constexpr int kMaxIssues = 8;

    /** Throw FatalError unless self-consistent. */
    void validate() const;

    /** Short tag, e.g. "razor/r3/stepup" or "worstcase". */
    std::string name() const;

    /** Worst-case-clocked baseline (no speculation). */
    static ReplayPolicy worstCase();

    /** The standard Razor loop (replay 3, step-up escalation). */
    static ReplayPolicy
    razor(int replay_budget = 3, Escalation esc = Escalation::StepUp);
};

} // namespace vboost::timing

#endif // VBOOST_TIMING_REPLAY_POLICY_HPP

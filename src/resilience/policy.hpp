/**
 * @file
 * Runtime resilience policy: how the SRAM access pipeline reacts to
 * ECC decode outcomes. The paper's premise (Sec. 1, Sec. 3) is that
 * low-voltage SRAM faults are survivable when the system *reacts* —
 * boosting per bank, per access — instead of letting flipped words
 * flow into inference. A ResiliencePolicy selects between the
 * fire-and-forget open loop (read, decode once, take what you get)
 * and the closed loop (detected-uncorrectable words are retried with
 * per-attempt boost escalation under a bounded budget, persistent
 * offenders raise their bank's standing level, and failing rows are
 * quarantined into spares).
 */

#ifndef VBOOST_RESILIENCE_POLICY_HPP
#define VBOOST_RESILIENCE_POLICY_HPP

#include <string>

#include "common/escalation.hpp"

namespace vboost::resilience {

/** Does the read path react to ECC outcomes at all? */
enum class AccessPolicyMode
{
    /** Fire-and-forget: one read, one decode, no reaction. */
    OpenLoop,
    /** Detect-and-react: bounded retry with boost escalation,
     *  standing-level raises and row sparing. */
    ClosedLoop,
};

/** Tunable knobs of the closed-loop SRAM access pipeline. */
struct ResiliencePolicy
{
    AccessPolicyMode mode = AccessPolicyMode::ClosedLoop;

    /** Extra read attempts after the first (0 = no retry). */
    int retryBudget = 3;

    /** How retry attempts pick their boost level: Hold retries at the
     *  bank's standing level (re-reads alone can clear a transient
     *  flip, since faulty cells flip per read with p), StepUp raises
     *  it by one per attempt, MaxOut jumps to the top level on the
     *  first retry. */
    Escalation escalation = Escalation::StepUp;

    /** Standing boost level every bank starts at. */
    int startLevel = 0;

    /** Spare rows available for quarantining persistent offenders
     *  (0 = sparing disabled). */
    int spareRows = 8;

    /** EWMA smoothing factor of the per-bank error-rate monitor. */
    double ewmaAlpha = 0.05;

    /** EWMA error rate above which a bank's standing level is raised.
     *  Calibrated well above the per-word first-error rate of moderate
     *  BER (mean ~0.1, sigma ~0.05 at 0.46 V with the default alpha),
     *  so random EWMA excursions don't move the standing level and the
     *  retry path absorbs the correctable trickle for free — while a
     *  chronically failing bank (error rate ~0.9 at 0.42 V) still
     *  crosses within ~10 accesses. */
    double raiseThreshold = 0.35;

    /** Uncorrectable events on one row before it is quarantined. */
    int quarantineThreshold = 2;

    /** Upper bound on attempts per access (first try + retries);
     *  keeps the per-access RNG stream layout fixed. */
    static constexpr int kMaxAttempts = 16;

    /**
     * Boost level of attempt `attempt` (0 = first try) when the bank's
     * standing level is `standing` and the top level is `max_level`.
     * Open-loop policies never escalate.
     */
    int attemptLevel(int standing, int attempt, int max_level) const;

    /** Throw FatalError unless the policy is self-consistent and fits
     *  a memory with `max_level` boost levels. */
    void validate(int max_level) const;

    /** Fire-and-forget baseline at a fixed standing level. */
    static ResiliencePolicy openLoop(int level = 0);

    /** The standard closed loop (retry 3, step-up, 8 spares). */
    static ResiliencePolicy closedLoop(int retry_budget = 3,
                                       Escalation esc = Escalation::StepUp,
                                       int spare_rows = 8);

    /** Short human-readable tag, e.g. "closed/r3/stepup/s8". */
    std::string name() const;
};

/** Display name of an access-policy mode ("open" / "closed"). */
const char *toString(AccessPolicyMode mode);

} // namespace vboost::resilience

#endif // VBOOST_RESILIENCE_POLICY_HPP

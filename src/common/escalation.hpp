/**
 * @file
 * The escalation ladder shared by the two closed loops that react to
 * errors by raising a voltage: resilience::ResiliencePolicy (per retry
 * attempt, up the SRAM boost levels) and timing::ReplayPolicy (per
 * monitor crossing, up the logic-voltage rungs to the safe rail).
 */

#ifndef VBOOST_COMMON_ESCALATION_HPP
#define VBOOST_COMMON_ESCALATION_HPP

namespace vboost {

/** How a closed loop climbs its voltage ladder. */
enum class Escalation
{
    /** Keep the standing level; retries or replays alone absorb the
     *  errors. */
    Hold,
    /** Raise the level by one rung per step. */
    StepUp,
    /** Jump straight to the top of the ladder on the first step. */
    MaxOut,
};

/** Display name ("hold" / "stepup" / "maxout"). */
const char *toString(Escalation esc);

} // namespace vboost

#endif // VBOOST_COMMON_ESCALATION_HPP

#include "timing/replay_policy.hpp"

#include "common/logging.hpp"

namespace vboost::timing {

void
ReplayPolicy::validate() const
{
    if (replayBudget < 0 || replayBudget > kMaxIssues - 1)
        fatal("ReplayPolicy: replayBudget must be in [0,", kMaxIssues - 1,
              "], got ", replayBudget);
    if (replaySlowdown < 1.0 || replaySlowdown > 16.0)
        fatal("ReplayPolicy: replaySlowdown must be in [1,16], got ",
              replaySlowdown);
    if (ewmaAlpha <= 0.0 || ewmaAlpha > 1.0)
        fatal("ReplayPolicy: ewmaAlpha must be in (0,1], got ", ewmaAlpha);
    if (raiseThreshold <= 0.0 || raiseThreshold >= 1.0)
        fatal("ReplayPolicy: raiseThreshold must be in (0,1), got ",
              raiseThreshold);
    if (stepSize.value() <= 0.0 || stepSize.value() > 0.2)
        fatal("ReplayPolicy: stepSize must be in (0,0.2] V, got ",
              stepSize.value());
    if (guardbandSigmas < 0.0 || guardbandSigmas > 16.0)
        fatal("ReplayPolicy: guardbandSigmas must be in [0,16], got ",
              guardbandSigmas);
    if (safeResidual <= 0.0 || safeResidual >= 1.0)
        fatal("ReplayPolicy: safeResidual must be in (0,1), got ",
              safeResidual);
}

std::string
ReplayPolicy::name() const
{
    if (!speculative)
        return "worstcase";
    return std::string("razor/r") + std::to_string(replayBudget) + "/" +
           toString(escalation);
}

ReplayPolicy
ReplayPolicy::worstCase()
{
    ReplayPolicy p;
    p.speculative = false;
    p.replayBudget = 0;
    return p;
}

ReplayPolicy
ReplayPolicy::razor(int replay_budget, Escalation esc)
{
    ReplayPolicy p;
    p.speculative = true;
    p.replayBudget = replay_budget;
    p.escalation = esc;
    return p;
}

} // namespace vboost::timing

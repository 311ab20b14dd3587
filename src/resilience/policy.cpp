#include "resilience/policy.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace vboost::resilience {

int
ResiliencePolicy::attemptLevel(int standing, int attempt,
                               int max_level) const
{
    if (attempt <= 0 || mode == AccessPolicyMode::OpenLoop)
        return standing;
    switch (escalation) {
      case Escalation::Hold:
        return standing;
      case Escalation::StepUp:
        return std::min(standing + attempt, max_level);
      case Escalation::MaxOut:
        return max_level;
    }
    panic("ResiliencePolicy::attemptLevel: bad escalation policy");
}

void
ResiliencePolicy::validate(int max_level) const
{
    if (retryBudget < 0 || retryBudget >= kMaxAttempts)
        fatal("ResiliencePolicy: retry budget must be in [0,",
              kMaxAttempts - 1, "], got ", retryBudget);
    if (startLevel < 0 || startLevel > max_level)
        fatal("ResiliencePolicy: start level ", startLevel,
              " out of [0,", max_level, "]");
    if (spareRows < 0)
        fatal("ResiliencePolicy: negative spare row count ", spareRows);
    if (ewmaAlpha <= 0.0 || ewmaAlpha > 1.0)
        fatal("ResiliencePolicy: EWMA alpha must be in (0,1], got ",
              ewmaAlpha);
    if (raiseThreshold <= 0.0 || raiseThreshold > 1.0)
        fatal("ResiliencePolicy: raise threshold must be in (0,1], got ",
              raiseThreshold);
    if (quarantineThreshold < 1)
        fatal("ResiliencePolicy: quarantine threshold must be >= 1, got ",
              quarantineThreshold);
}

ResiliencePolicy
ResiliencePolicy::openLoop(int level)
{
    ResiliencePolicy p;
    p.mode = AccessPolicyMode::OpenLoop;
    p.retryBudget = 0;
    p.spareRows = 0;
    p.startLevel = level;
    return p;
}

ResiliencePolicy
ResiliencePolicy::closedLoop(int retry_budget, Escalation esc,
                             int spare_rows)
{
    ResiliencePolicy p;
    p.mode = AccessPolicyMode::ClosedLoop;
    p.retryBudget = retry_budget;
    p.escalation = esc;
    p.spareRows = spare_rows;
    return p;
}

std::string
ResiliencePolicy::name() const
{
    if (mode == AccessPolicyMode::OpenLoop)
        return "open/L" + std::to_string(startLevel);
    return std::string("closed/r") + std::to_string(retryBudget) + "/" +
           toString(escalation) + "/s" + std::to_string(spareRows);
}

const char *
toString(AccessPolicyMode mode)
{
    return mode == AccessPolicyMode::OpenLoop ? "open" : "closed";
}

} // namespace vboost::resilience

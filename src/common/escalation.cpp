#include "common/escalation.hpp"

namespace vboost {

const char *
toString(Escalation esc)
{
    switch (esc) {
      case Escalation::Hold:
        return "hold";
      case Escalation::StepUp:
        return "stepup";
      case Escalation::MaxOut:
        return "maxout";
    }
    return "?";
}

} // namespace vboost

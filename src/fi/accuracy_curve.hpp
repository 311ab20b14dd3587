/**
 * @file
 * An interpolated accuracy-vs-failure-probability curve. Monte-Carlo
 * accuracy evaluation is expensive (maps x images x MACs); the
 * iso-accuracy studies (Figs. 13c, 14, 15) query accuracy at many
 * boosted-voltage points, so we sample the curve once on a log-spaced
 * failure-probability grid and interpolate (linear in log F).
 */

#ifndef VBOOST_FI_ACCURACY_CURVE_HPP
#define VBOOST_FI_ACCURACY_CURVE_HPP

#include <vector>

#include "fi/experiment.hpp"

namespace vboost::fi {

/** Accuracy as a function of bit failure probability. */
class AccuracyCurve
{
  public:
    /**
     * Sample the curve with a runner.
     *
     * @param runner Monte-Carlo evaluation harness.
     * @param spec injection target.
     * @param f_min smallest non-zero failure probability sampled.
     * @param f_max largest failure probability sampled.
     * @param points log-spaced sample count (>= 2).
     */
    static AccuracyCurve sample(FaultInjectionRunner &runner,
                                const InjectionSpec &spec,
                                double f_min = 1e-5, double f_max = 0.3,
                                int points = 10);

    /** Construct directly from (failProb, accuracy) samples; fail
     *  probabilities must be positive and strictly increasing. */
    AccuracyCurve(std::vector<double> fail_probs,
                  std::vector<double> accuracies,
                  double fault_free_accuracy);

    /**
     * Interpolated accuracy at failure probability f: the fault-free
     * accuracy at f below the sampled range, the last sample above it,
     * log-linear interpolation in between.
     */
    double at(double fail_prob) const;

    /** Accuracy with no faults. sample() takes it from
     *  FaultInjectionRunner::baselineAccuracy: the float weights, not
     *  their int16 round trip. */
    double faultFree() const { return faultFree_; }

    /** The sampled grid (diagnostics). */
    const std::vector<double> &failProbs() const { return failProbs_; }
    const std::vector<double> &accuracies() const { return accuracies_; }

  private:
    std::vector<double> failProbs_;
    std::vector<double> accuracies_;
    double faultFree_;
};

} // namespace vboost::fi

#endif // VBOOST_FI_ACCURACY_CURVE_HPP

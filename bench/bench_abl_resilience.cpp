/**
 * @file
 * Ablation: the closed-loop resilient SRAM access pipeline
 * (DESIGN.md §8) against the fire-and-forget open loop, across the VLV
 * supply grid. Sweeps retry budget x escalation policy x spare-row
 * count for the FC-DNN and reports accuracy, residual corruption, the
 * pipeline's own counters (retries, escalations, standing raises,
 * quarantines) and total SRAM energy. The headline question: does
 * reacting to ECC detections (retry at an escalated boost level, raise
 * chronically failing banks, quarantine repeat-offender rows) beat
 * paying for boost on every access up front?
 *
 * The dominance check at the end looks for a VLV point where the
 * closed loop is at least as accurate as an open-loop baseline at
 * strictly lower SRAM energy (or strictly more accurate at equal or
 * lower energy). A perf table shows how the measured retry rate
 * perturbs the Dante performance model.
 *
 * --policy open|closed|both selects the variants; --retry-budget and
 * --spares parameterize the closed loop; --json <path> dumps the
 * full result set for machine consumption (CI uploads this artifact).
 */

#include <fstream>
#include <sstream>
#include <vector>

#include "accel/dataflow.hpp"
#include "accel/perf_model.hpp"
#include "bench_util.hpp"
#include "common/logging.hpp"
#include "core/context.hpp"
#include "fi/experiment.hpp"
#include "json_writer.hpp"
#include "obs_json.hpp"
#include "obs/observability.hpp"
#include "resilience/policy.hpp"
#include "sram/failure_model.hpp"

using namespace vboost;

namespace {

/** One evaluated (policy, voltage) cell. */
struct ResultRow
{
    resilience::ResiliencePolicy policy;
    Volt vdd{0.0};
    double ber = 0.0;
    fi::ResilientAccuracyPoint r;
};

double
perRead(std::uint64_t count, std::uint64_t reads)
{
    return reads ? static_cast<double>(count) /
                       static_cast<double>(reads)
                 : 0.0;
}

/** Closed-over-open dominance: better on one axis, no worse on the
 *  other (accuracy compared with a small Monte-Carlo epsilon). */
bool
dominates(const ResultRow &closed, const ResultRow &open, double eps)
{
    const double ca = closed.r.point.meanAccuracy;
    const double oa = open.r.point.meanAccuracy;
    const double ce = closed.r.meanAccessEnergy.value();
    const double oe = open.r.meanAccessEnergy.value();
    return (ca >= oa - eps && ce < oe) || (ca > oa + eps && ce <= oe);
}

void
writeJson(const std::string &path, const std::vector<ResultRow> &rows,
          const ResultRow *dom_closed, const ResultRow *dom_open,
          const bench::BenchOptions &opts)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write JSON to ", path);
    bench::JsonWriter json(out);
    json.beginObject()
        .field("bench", "abl_resilience")
        .field("smoke", opts.smoke)
        .field("paper", opts.paper)
        .field("map_model", opts.mapModel)
        .beginArrayField("points");
    for (const auto &row : rows) {
        const auto &s = row.r.stats;
        json.beginObject()
            .field("policy", row.policy.name())
            .field("vdd", row.vdd.value())
            .field("ber", row.ber)
            .field("accuracy", row.r.point.meanAccuracy)
            .field("accuracy_stddev", row.r.point.stddevAccuracy)
            .field("residual_flips", row.r.point.meanBitFlips)
            .field("reads", s.reads)
            .field("corrected_reads", s.correctedReads)
            .field("retried_reads", s.retriedReads)
            .field("retries", s.retries)
            .field("escalations", s.escalations)
            .field("standing_raises", s.standingRaises)
            .field("quarantines", s.quarantines)
            .field("spare_reads", s.spareReads)
            .field("spare_exhausted", s.spareExhausted)
            .field("uncorrected", s.uncorrected)
            .field("energy_j", row.r.meanAccessEnergy.value())
            .field("retry_latency_s", row.r.meanRetryLatency.value())
            .field("spare_table_digest", s.spareTableDigest)
            .endObject();
    }
    json.endArray().beginObjectField("dominance");
    if (dom_closed && dom_open) {
        json.field("found", true)
            .field("vdd", dom_closed->vdd.value())
            .field("closed", dom_closed->policy.name())
            .field("open", dom_open->policy.name())
            .field("closed_accuracy", dom_closed->r.point.meanAccuracy)
            .field("open_accuracy", dom_open->r.point.meanAccuracy)
            .field("closed_energy_j",
                   dom_closed->r.meanAccessEnergy.value())
            .field("open_energy_j", dom_open->r.meanAccessEnergy.value());
    } else {
        json.field("found", false);
    }
    json.endObject().endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::BenchOptions::parse(argc, argv);
    setQuiet(!opts.paper);

    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel frm(ctx.failure);

    auto net = bench::trainedMnistFc(opts);
    const auto test = bench::mnistTestSet(opts);
    fi::ExperimentConfig cfg;
    cfg.numMaps = opts.maps(6);
    cfg.maxTestSamples = opts.samples(400);
    cfg.numThreads = opts.threads;
    if (opts.mapModel == "clustered")
        cfg.mapModel = sram::MapModel::Clustered;
    fi::FaultInjectionRunner runner(net, test, cfg);

    using resilience::ResiliencePolicy;

    // The sweep: open-loop baselines (unboosted and always-boosted)
    // against closed-loop variants over retry budget x escalation x
    // spare count.
    std::vector<ResiliencePolicy> policies;
    if (opts.policy != "closed") {
        policies.push_back(ResiliencePolicy::openLoop(0));
        policies.push_back(ResiliencePolicy::openLoop(1));
    }
    if (opts.policy != "open") {
        policies.push_back(ResiliencePolicy::closedLoop(
            opts.retryBudget, Escalation::StepUp, opts.spares));
        if (!opts.smoke) {
            policies.push_back(ResiliencePolicy::closedLoop(
                1, Escalation::StepUp, opts.spares));
            policies.push_back(ResiliencePolicy::closedLoop(
                opts.retryBudget, Escalation::Hold, opts.spares));
            policies.push_back(ResiliencePolicy::closedLoop(
                opts.retryBudget, Escalation::StepUp, 0));
        }
        policies.push_back(ResiliencePolicy::closedLoop(
            opts.retryBudget, Escalation::MaxOut, opts.spares));
    }

    std::vector<Volt> grid =
        opts.smoke ? std::vector<Volt>{0.42_V, 0.46_V} : bench::vlvGrid();

    // One observability sink across the whole policy x voltage sweep:
    // each cell re-attaches with {policy, vdd} labels so the registry
    // separates the cells while the Monte-Carlo merge path stays
    // thread-count invariant (DESIGN.md §11).
    obs::Observability obsv;
    const bool want_obs =
        !opts.metricsOutPath.empty() || !opts.traceOutPath.empty();
    std::uint64_t cell_pid = 0;

    std::vector<ResultRow> rows;
    Table t({"policy", "Vdd (V)", "BER", "accuracy", "resid flips",
             "retries/read", "escal", "raises", "quarant", "spare rd",
             "uncorr", "energy (nJ)", "retry lat (us)"});
    for (const auto &policy : policies) {
        for (Volt v : grid) {
            ResultRow row;
            row.policy = policy;
            row.vdd = v;
            row.ber = frm.rate(v);
            if (want_obs) {
                std::ostringstream vdd_label;
                vdd_label << v.value();
                obsv.trace.setProcessName(cell_pid,
                                          policy.name() + " @ " +
                                              vdd_label.str() + " V");
                runner.attachObservability(&obsv, cell_pid,
                                           {{"policy", policy.name()},
                                            {"vdd", vdd_label.str()}});
                ++cell_pid;
            }
            row.r = runner.runResilient(v, ctx, policy);
            const auto &s = row.r.stats;
            t.addRow({policy.name(), Table::num(v.value(), 2),
                      Table::sci(row.ber),
                      Table::pct(row.r.point.meanAccuracy),
                      Table::num(row.r.point.meanBitFlips, 1),
                      Table::num(perRead(s.retries, s.reads), 4),
                      std::to_string(s.escalations),
                      std::to_string(s.standingRaises),
                      std::to_string(s.quarantines),
                      std::to_string(s.spareReads),
                      std::to_string(s.uncorrected),
                      Table::num(row.r.meanAccessEnergy.value() * 1e9,
                                 2),
                      Table::num(row.r.meanRetryLatency.value() * 1e6,
                                 3)});
            rows.push_back(row);
        }
    }
    bench::emit("Ablation: closed-loop resilient pipeline vs open loop "
                "(FC-DNN, VLV grid, " + opts.mapModel + " fault maps)",
                t, opts);

    // Dominance: find the VLV point where some closed-loop variant
    // beats an open-loop baseline on one axis without losing the
    // other; among all dominating pairs keep the largest energy win.
    const double eps = 0.0025;
    const ResultRow *dom_closed = nullptr;
    const ResultRow *dom_open = nullptr;
    double best_saving = 0.0;
    for (const auto &c : rows) {
        if (c.policy.mode != resilience::AccessPolicyMode::ClosedLoop)
            continue;
        for (const auto &o : rows) {
            if (o.policy.mode != resilience::AccessPolicyMode::OpenLoop ||
                o.vdd.value() != c.vdd.value())
                continue;
            const double saving = o.r.meanAccessEnergy.value() -
                                  c.r.meanAccessEnergy.value();
            if (dominates(c, o, eps) &&
                (!dom_closed || saving > best_saving)) {
                dom_closed = &c;
                dom_open = &o;
                best_saving = saving;
            }
        }
    }
    Table d({"verdict", "Vdd (V)", "closed policy", "open policy",
             "closed acc", "open acc", "closed nJ", "open nJ"});
    if (dom_closed) {
        d.addRow({"closed loop dominates",
                  Table::num(dom_closed->vdd.value(), 2),
                  dom_closed->policy.name(), dom_open->policy.name(),
                  Table::pct(dom_closed->r.point.meanAccuracy),
                  Table::pct(dom_open->r.point.meanAccuracy),
                  Table::num(
                      dom_closed->r.meanAccessEnergy.value() * 1e9, 2),
                  Table::num(dom_open->r.meanAccessEnergy.value() * 1e9,
                             2)});
    } else {
        d.addRow({"no dominating point found", "-", "-", "-", "-", "-",
                  "-", "-"});
    }
    bench::emit("Closed-over-open dominance at VLV", d, opts);

    // Perturb the Dante performance model with the measured retry
    // rates of the main closed-loop policy.
    if (opts.policy != "open") {
        accel::PerformanceModel perf(ctx, 16);
        const auto activity = accel::totalActivity(
            accel::DanaFcModel().networkActivity(
                {784, 256, 256, 256, 32}));
        Table p({"Vdd (V)", "retries/read", "escal frac",
                 "clock (MHz)", "runtime open (us)",
                 "runtime closed (us)", "GOPS/W open", "GOPS/W closed"});
        for (const auto &row : rows) {
            if (row.policy.mode !=
                    resilience::AccessPolicyMode::ClosedLoop ||
                row.policy.name() !=
                    resilience::ResiliencePolicy::closedLoop(
                        opts.retryBudget, Escalation::StepUp,
                        opts.spares)
                        .name())
                continue;
            const auto &s = row.r.stats;
            accel::RetryOverhead overhead;
            overhead.retryRate = perRead(s.retries, s.reads);
            overhead.escalatedFraction =
                perRead(s.escalations, s.reads + s.retries);
            overhead.escalatedLevel = 1;
            const auto open = perf.evaluate(
                activity, row.vdd, 0, accel::SupplyMode::Boosted);
            const auto closed =
                perf.evaluate(activity, row.vdd, 0,
                              accel::SupplyMode::Boosted, overhead);
            p.addRow({Table::num(row.vdd.value(), 2),
                      Table::num(overhead.retryRate, 4),
                      Table::num(overhead.escalatedFraction, 4),
                      Table::num(closed.clock.value() / 1e6, 1),
                      Table::num(open.runtime.value() * 1e6, 2),
                      Table::num(closed.runtime.value() * 1e6, 2),
                      Table::num(open.gopsPerWatt, 1),
                      Table::num(closed.gopsPerWatt, 1)});
        }
        bench::emit("Perf-model perturbation from measured retry rates "
                    "(Boosted mode, L0 standing)",
                    p, opts);
    }

    if (!opts.jsonPath.empty()) {
        writeJson(opts.jsonPath, rows, dom_closed, dom_open, opts);
        inform("wrote JSON results to ", opts.jsonPath);
    }
    if (want_obs) {
        runner.attachObservability(nullptr);
        obs::recordLoggingMetrics(obsv.metrics);
    }
    if (!opts.metricsOutPath.empty())
        bench::writeMetricsJson(opts.metricsOutPath, "abl_resilience",
                                obsv.metrics);
    if (!opts.traceOutPath.empty())
        bench::writeTraceJson(opts.traceOutPath, obsv.trace);
    return 0;
}

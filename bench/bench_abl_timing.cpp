/**
 * @file
 * Ablation: the timing-speculative Razor datapath (DESIGN.md §13)
 * against worst-case clocking, on the joint (V_logic, V_sram) grid.
 * Every cell runs the combined fault-injection experiment — SRAM
 * faults through the closed-loop resilient pipeline at V_sram plus
 * timing faults on the speculative datapath at V_logic — and feeds
 * the measured replay/bubble rates (speculative) or clock stretch
 * (worst case) into the Dante performance model for end-to-end
 * energy and runtime.
 *
 * The dominance check mirrors bench_abl_resilience: find a joint
 * point where a Razor policy is at least as accurate as the
 * worst-case baseline at strictly lower total energy (or strictly
 * more accurate at equal-or-lower energy). The worst-case design
 * never errs but pays the guardbanded clock stretch in leakage and
 * runtime; speculation pays replays instead.
 *
 * The whole sweep is bitwise thread-count invariant (§7): per-map
 * datapaths are keyed by counter-derived streams, stats merge in map
 * order, and the JSON includes the replay digests so CI can diff
 * artifacts across machines and thread counts.
 *
 * --map-model {iid,clustered} selects the SRAM fault-map structure;
 * --retry-budget doubles as the Razor replay budget; --json <path>
 * dumps the result set (CI uploads this artifact).
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
#include "timing/replay_policy.hpp"
#include "timing/timing_model.hpp"

using namespace vboost;

namespace {

/** One evaluated (replay policy, V_logic, V_sram) cell. */
struct ResultRow
{
    timing::ReplayPolicy policy;
    Volt vLogic{0.0};
    Volt vSram{0.0};
    /** Model-predicted per-op violation probability at V_logic. */
    double opErrorProb = 0.0;
    fi::CombinedAccuracyPoint r;
    /** End-to-end perf at the measured overheads. */
    accel::PerfResult perf;
};

double
perOp(std::uint64_t count, std::uint64_t ops)
{
    return ops ? static_cast<double>(count) / static_cast<double>(ops)
               : 0.0;
}

/** Measured datapath perturbation of a finished cell. */
accel::TimingOverhead
measuredOverhead(const ResultRow &row)
{
    const timing::TimingStats &t = row.r.timing;
    accel::TimingOverhead o;
    o.replayRate = perOp(t.replays, t.ops);
    // Replays occupy one PE slot each; their extra slowdown cycles and
    // the flush/refill bubbles both go into the bubble term.
    o.bubbleRate =
        perOp(t.bubbleCycles + t.replayCycles - t.replays, t.ops);
    o.vLogic = row.vLogic;
    o.clockStretch = row.r.cycleStretch;
    return o;
}

/** Razor-over-worst-case dominance: better on one axis, no worse on
 *  the other (accuracy compared with a Monte-Carlo epsilon). */
bool
dominates(const ResultRow &razor, const ResultRow &wc, double eps)
{
    const double ra = razor.r.point.meanAccuracy;
    const double wa = wc.r.point.meanAccuracy;
    const double re = razor.perf.totalEnergy.value();
    const double we = wc.perf.totalEnergy.value();
    return (ra >= wa - eps && re < we) || (ra > wa + eps && re <= we);
}

void
writeJson(const std::string &path, const std::vector<ResultRow> &rows,
          const ResultRow *dom_razor, const ResultRow *dom_wc,
          const bench::BenchOptions &opts)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write JSON to ", path);
    bench::JsonWriter json(out);
    json.beginObject()
        .field("bench", "abl_timing")
        .field("smoke", opts.smoke)
        .field("paper", opts.paper)
        .field("map_model", opts.mapModel)
        .beginArrayField("points");
    for (const auto &row : rows) {
        const auto &t = row.r.timing;
        const auto &s = row.r.sram;
        json.beginObject()
            .field("policy", row.policy.name())
            .field("v_logic", row.vLogic.value())
            .field("v_sram", row.vSram.value())
            .field("op_error_prob", row.opErrorProb)
            .field("accuracy", row.r.point.meanAccuracy)
            .field("accuracy_stddev", row.r.point.stddevAccuracy)
            .field("residual_flips", row.r.point.meanBitFlips)
            .field("ops", t.ops)
            .field("timing_errors", t.errors)
            .field("replays", t.replays)
            .field("corrupted_ops", t.corrupted)
            .field("step_ups", t.stepUps)
            .field("fallbacks", t.fallbacks)
            .field("replay_cycles", t.replayCycles)
            .field("bubble_cycles", t.bubbleCycles)
            .field("replay_digest", t.replayDigest)
            .field("sram_retries", s.retries)
            .field("sram_uncorrected", s.uncorrected)
            .field("cycle_stretch", row.r.cycleStretch)
            .field("safe_v_logic", row.r.safeVoltage.value())
            .field("logic_energy_j", row.r.meanLogicEnergy.value())
            .field("sram_energy_j", row.r.meanSramEnergy.value())
            .field("replay_latency_s", row.r.meanReplayLatency.value())
            .field("perf_total_energy_j", row.perf.totalEnergy.value())
            .field("perf_runtime_s", row.perf.runtime.value())
            .field("perf_gops_per_w", row.perf.gopsPerWatt)
            .endObject();
    }
    json.endArray().beginObjectField("dominance");
    if (dom_razor && dom_wc) {
        json.field("found", true)
            .field("v_logic", dom_razor->vLogic.value())
            .field("v_sram", dom_razor->vSram.value())
            .field("razor", dom_razor->policy.name())
            .field("worstcase", dom_wc->policy.name())
            .field("razor_accuracy", dom_razor->r.point.meanAccuracy)
            .field("worstcase_accuracy", dom_wc->r.point.meanAccuracy)
            .field("razor_energy_j", dom_razor->perf.totalEnergy.value())
            .field("worstcase_energy_j", dom_wc->perf.totalEnergy.value())
            .field("razor_runtime_s", dom_razor->perf.runtime.value())
            .field("worstcase_runtime_s", dom_wc->perf.runtime.value());
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
    const timing::TimingParams tparams;
    const timing::TimingErrorModel tmodel(ctx.tech, tparams);

    auto net = bench::trainedMnistFc(opts);
    const auto test = bench::mnistTestSet(opts);
    fi::ExperimentConfig cfg;
    cfg.numMaps = opts.maps(4);
    cfg.maxTestSamples = opts.samples(400);
    cfg.numThreads = opts.threads;
    if (opts.mapModel == "clustered")
        cfg.mapModel = sram::MapModel::Clustered;
    fi::FaultInjectionRunner runner(net, test, cfg);

    auto resil = resilience::ResiliencePolicy::closedLoop(
        opts.retryBudget);
    resil.spareRows = opts.spares;

    using timing::ReplayPolicy;
    std::vector<ReplayPolicy> policies;
    policies.push_back(ReplayPolicy::worstCase());
    policies.push_back(ReplayPolicy::razor(opts.retryBudget));
    if (!opts.smoke) {
        policies.push_back(ReplayPolicy::razor(0)); // detect-only
        policies.push_back(ReplayPolicy::razor(opts.retryBudget,
                                               Escalation::Hold));
        policies.push_back(ReplayPolicy::razor(opts.retryBudget,
                                               Escalation::MaxOut));
    }

    // The joint grid: the datapath rail sweeps through the region
    // where worst-case timing stops holding at the 50 MHz VLV clock;
    // the SRAM rail sweeps the usual VLV points.
    const std::vector<Volt> vlogic_grid =
        opts.smoke ? std::vector<Volt>{0.32_V, 0.36_V}
                   : std::vector<Volt>{0.30_V, 0.32_V, 0.34_V, 0.36_V,
                                       0.38_V};
    const std::vector<Volt> vsram_grid =
        opts.smoke ? std::vector<Volt>{0.42_V, 0.46_V}
                   : std::vector<Volt>{0.42_V, 0.46_V, 0.50_V};

    accel::PerformanceModel perf(ctx, 16);
    const auto activity = accel::totalActivity(
        accel::DanaFcModel().networkActivity({784, 256, 256, 256, 32}));
    const Second target_period(1.0 / 50e6);

    obs::Observability obsv;
    const bool want_obs =
        !opts.metricsOutPath.empty() || !opts.traceOutPath.empty();
    std::uint64_t cell_pid = 0;

    std::vector<ResultRow> rows;
    Table t({"policy", "Vlogic (V)", "Vsram (V)", "p_op", "accuracy",
             "errors/op", "replays/op", "corrupt", "stepups", "fallbk",
             "stretch", "logic nJ", "sram nJ", "total uJ", "runtime us"});
    for (const auto &policy : policies) {
        for (Volt vl : vlogic_grid) {
            for (Volt vs : vsram_grid) {
                ResultRow row;
                row.policy = policy;
                row.vLogic = vl;
                row.vSram = vs;
                row.opErrorProb =
                    policy.speculative
                        ? tmodel.opErrorProb(vl, target_period)
                        : 0.0;
                if (want_obs) {
                    std::ostringstream cell;
                    cell << policy.name() << " @ " << vl.value() << "/"
                         << vs.value() << " V";
                    obsv.trace.setProcessName(cell_pid, cell.str());
                    std::ostringstream vls, vss;
                    vls << vl.value();
                    vss << vs.value();
                    runner.attachObservability(
                        &obsv, cell_pid,
                        {{"policy", policy.name()},
                         {"v_logic", vls.str()},
                         {"v_sram", vss.str()}});
                    ++cell_pid;
                }
                fi::TimingInjection inj;
                inj.params = tparams;
                inj.policy = policy;
                inj.vLogic = vl;
                inj.clock = Hertz(50e6);
                row.r = runner.runCombined(vs, ctx, resil, inj);

                accel::RetryOverhead retry;
                const auto &rs = row.r.sram;
                if (rs.reads > 0) {
                    retry.retryRate = perOp(rs.retries, rs.reads);
                    retry.escalatedFraction =
                        perOp(rs.escalations, rs.reads + rs.retries);
                    retry.escalatedLevel = 1;
                }
                row.perf = perf.evaluate(activity, vs, 0,
                                         accel::SupplyMode::Boosted,
                                         retry, measuredOverhead(row));

                const auto &ts = row.r.timing;
                t.addRow({policy.name(), Table::num(vl.value(), 2),
                          Table::num(vs.value(), 2),
                          Table::sci(row.opErrorProb),
                          Table::pct(row.r.point.meanAccuracy),
                          Table::num(perOp(ts.errors, ts.ops), 5),
                          Table::num(perOp(ts.replays, ts.ops), 5),
                          std::to_string(ts.corrupted),
                          std::to_string(ts.stepUps),
                          std::to_string(ts.fallbacks),
                          Table::num(row.r.cycleStretch, 3),
                          Table::num(row.r.meanLogicEnergy.value() * 1e9,
                                     2),
                          Table::num(row.r.meanSramEnergy.value() * 1e9,
                                     2),
                          Table::num(row.perf.totalEnergy.value() * 1e6,
                                     3),
                          Table::num(row.perf.runtime.value() * 1e6,
                                     2)});
                rows.push_back(row);
            }
        }
    }
    bench::emit("Ablation: Razor detect-and-replay vs worst-case "
                "clocking (FC-DNN, joint V_logic x V_sram grid, " +
                    opts.mapModel + " fault maps)",
                t, opts);

    // Dominance: a Razor point beating the worst-case baseline at the
    // same joint voltage point; keep the largest energy win.
    const double eps = 0.0025;
    const ResultRow *dom_razor = nullptr;
    const ResultRow *dom_wc = nullptr;
    double best_saving = 0.0;
    for (const auto &rz : rows) {
        if (!rz.policy.speculative)
            continue;
        for (const auto &wc : rows) {
            if (wc.policy.speculative ||
                wc.vLogic.value() != rz.vLogic.value() ||
                wc.vSram.value() != rz.vSram.value())
                continue;
            const double saving = wc.perf.totalEnergy.value() -
                                  rz.perf.totalEnergy.value();
            if (dominates(rz, wc, eps) &&
                (!dom_razor || saving > best_saving)) {
                dom_razor = &rz;
                dom_wc = &wc;
                best_saving = saving;
            }
        }
    }
    Table d({"verdict", "Vlogic (V)", "Vsram (V)", "razor policy",
             "razor acc", "wc acc", "razor uJ", "wc uJ", "razor us",
             "wc us"});
    if (dom_razor) {
        d.addRow({"razor dominates",
                  Table::num(dom_razor->vLogic.value(), 2),
                  Table::num(dom_razor->vSram.value(), 2),
                  dom_razor->policy.name(),
                  Table::pct(dom_razor->r.point.meanAccuracy),
                  Table::pct(dom_wc->r.point.meanAccuracy),
                  Table::num(dom_razor->perf.totalEnergy.value() * 1e6,
                             3),
                  Table::num(dom_wc->perf.totalEnergy.value() * 1e6, 3),
                  Table::num(dom_razor->perf.runtime.value() * 1e6, 2),
                  Table::num(dom_wc->perf.runtime.value() * 1e6, 2)});
    } else {
        d.addRow({"no dominating point found", "-", "-", "-", "-", "-",
                  "-", "-", "-", "-"});
    }
    bench::emit("Razor-over-worst-case dominance on the joint grid", d,
                opts);

    if (!opts.jsonPath.empty()) {
        writeJson(opts.jsonPath, rows, dom_razor, dom_wc, opts);
        inform("wrote JSON results to ", opts.jsonPath);
    }
    if (want_obs) {
        runner.attachObservability(nullptr);
        // Unlike the sibling benches, the logging-limiter gauges are
        // NOT recorded here: their emitted/suppressed split depends on
        // worker-thread interleaving, and this bench's metrics
        // artifact (fingerprint included) is part of the thread-count
        // invariance contract checked by the timing_replay_determinism
        // ctest.
    }
    if (!opts.metricsOutPath.empty())
        bench::writeMetricsJson(opts.metricsOutPath, "abl_timing",
                                obsv.metrics);
    if (!opts.traceOutPath.empty())
        bench::writeTraceJson(opts.traceOutPath, obsv.trace);
    return 0;
}

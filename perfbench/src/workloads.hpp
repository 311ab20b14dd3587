/**
 * @file
 * The four benchmark workloads (serve, sweep, train, recover) and the
 * run loop shared by all of them. A run sets the workload up several
 * times (setup_s is the median), then repeats timed work units until
 * the requested seconds have passed. Every unit prints its simulated
 * outputs as exact check values; the traced run also replays one
 * representative slice through the public layer calls, inside spans,
 * and checks the replayed outputs against the real ones.
 *
 * Output is one JSON object per line on stdout (kind = provenance,
 * unit, replay, error or metrics); perfbench/run.py turns it into the
 * benchmark's result line.
 */

#ifndef VBB_WORKLOADS_HPP
#define VBB_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vbb {

/** Everything one workload run needs from the command line. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;
    /** Worker threads of the parallel layers (<= nproc). */
    int threads = 1;
    /** Directory of the prepared models. */
    std::string modelDir;
    /** Expected recovery::weightsDigest per prepared model name. */
    std::map<std::string, std::uint64_t> modelDigests;
    /** Where the traced run writes its spans (empty = nowhere). */
    std::string spansOut;
    /** steady_clock reading at entry to main (setup_s origin). */
    std::int64_t startNs = 0;
};

/** Names of the workloads, in the order the benchmark lists them. */
const std::vector<std::string> &workloadNames();

/** Run one workload; returns the process exit status. */
int runWorkload(const RunConfig &cfg);

} // namespace vbb

#endif // VBB_WORKLOADS_HPP

/**
 * @file
 * vbbench: the benchmark's measuring program.
 *
 *   vbbench prepare --models <dir>
 *   vbbench run --workload <serve|sweep|train|recover> --seed <n>
 *               --seconds <n> --trace <0|1> --models <dir>
 *               --model-digest <name>=<hex> ... [--spans-out <path>]
 *
 * `prepare` trains the models once (untimed); `run` measures one
 * workload and prints JSON lines (see workloads.hpp). Malformed
 * arguments print the usage and exit with status 2.
 */

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/logging.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/backend/impl.hpp"
#include "models.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "vbbench: " << why << "\n"
              << "usage: vbbench prepare --models <dir>\n"
                 "       vbbench run --workload <serve|sweep|train|recover>"
                 " --seed <n> --seconds <1-600> --trace <0|1>"
                 " --models <dir> --model-digest <name>=<hex> ..."
                 " [--spans-out <path>]\n";
    std::exit(2);
}

/** Strict unsigned decimal (or 0x-hex when `base` is 16). */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text, int base)
{
    if (text.empty() || text[0] == '-' || text[0] == '+')
        usage(flag + " expects an unsigned integer, got '" + text + "'");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        usage(flag + " expects an unsigned integer, got '" + text + "'");
    return v;
}

/** CPUs this process may run on. */
int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

void
printProvenance(int threads)
{
    const auto backend = vboost::dnn::activeBackend().name();
    const char *isa = backend == "vectorized"
                          ? (vboost::dnn::detail::avx512GemmAvailable()
                                 ? "avx512"
                                 : "avx2")
                          : "scalar";
    std::cout << "{\"kind\":\"provenance\",\"backend\":\"" << backend
              << "\",\"isa\":\"" << isa << "\",\"threads\":" << threads
              << ",\"build_type\":\"" << VBB_BUILD_TYPE
              << "\",\"compiler\":\"" << VBB_COMPILER
              << "\",\"nproc\":" << availableCpus() << "}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t start_ns = vbb::nowNs();
    if (argc < 2)
        usage("missing command");
    const std::string command = argv[1];
    if (command != "prepare" && command != "run")
        usage("unknown command '" + command + "'");

    vbb::RunConfig cfg;
    cfg.startNs = start_ns;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("option " + flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--models") {
            cfg.modelDir = value;
        } else if (command == "prepare") {
            usage("unknown option '" + flag + "' for prepare");
        } else if (flag == "--workload") {
            bool known = false;
            for (const auto &n : vbb::workloadNames())
                known = known || n == value;
            if (!known)
                usage("unknown workload '" + value + "'");
            cfg.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            cfg.seed = parseUnsigned(flag, value, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUnsigned(flag, value, 10);
            if (s < 1 || s > 600)
                usage("--seconds expects 1..600, got " + value);
            cfg.seconds = static_cast<int>(s);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace expects 0 or 1, got '" + value + "'");
            cfg.trace = value == "1";
            have_trace = true;
        } else if (flag == "--model-digest") {
            const auto eq = value.find('=');
            if (eq == std::string::npos || eq == 0)
                usage("--model-digest expects <name>=<hex>");
            cfg.modelDigests[value.substr(0, eq)] =
                parseUnsigned(flag, value.substr(eq + 1), 16);
        } else if (flag == "--spans-out") {
            cfg.spansOut = value;
        } else {
            usage("unknown option '" + flag + "'");
        }
    }
    if (cfg.modelDir.empty())
        usage("--models is required");

    try {
        if (command == "prepare") {
            vbb::prepareModels(cfg.modelDir);
            return 0;
        }
        if (!have_workload || !have_seed || !have_seconds || !have_trace)
            usage("run needs --workload, --seed, --seconds and --trace");
        for (const char *name : {vbb::kMnistFc, vbb::kAlexNet}) {
            if (!cfg.modelDigests.count(name))
                usage(std::string("missing --model-digest for ") + name);
        }
        // sweep runs on two parallel workers: more than one, and at
        // most half of a 4-core host so that run-to-run noise stays low.
        // The others run serially, which on a shared host is steadier
        // still (see CoreRotation in workloads.cpp).
        cfg.threads = cfg.workload == "sweep" ? std::min(2, availableCpus())
                                              : 1;
        vboost::setQuiet(true);
        printProvenance(cfg.threads);
        return vbb::runWorkload(cfg);
    } catch (const std::exception &e) {
        std::cerr << "vbbench: " << e.what() << std::endl;
        return 1;
    }
}

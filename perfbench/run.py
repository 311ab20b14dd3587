#!/usr/bin/env python3
"""Host-time benchmark of vboost: one workload run per invocation.

    python3 perfbench/run.py --workload <serve|sweep|train|recover|all>
                             --seed <n> --seconds <n> --trace <0|1>
                             [--expected <path>]

Run from the root of a vboost checkout. The first run builds the
library and the measuring program (perfbench/CMakeLists.txt) into
.bench_build/ and prepares the trained models there once, untimed.
Every later run reuses both.

The measuring program prints its work units' exact simulated outputs.
This script checks them against perfbench/expected.json on the seed
those values were recorded for, and on any other seed checks that all
repeats within the run agree bitwise. It prints every metric by name
and unit, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vbbench")
MODELS = os.path.join(BUILD, "models")
SPANS = os.path.join(BUILD, "spans")
WORKLOADS = ["serve", "sweep", "train", "recover"]
# A run must end within 180 s; leave room for set-up and reporting.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(message):
    """Report a run that could not measure: no result line, exit 1."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, what, **kwargs):
    """Run a child in its own process group and wait for it. On timeout
    kill the whole group (a build's compilers too), wait, and fail."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(what + " timed out")
    return proc.returncode, out, err


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Host-time benchmark of the vboost workloads.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=non_negative)
    parser.add_argument("--seconds", required=True, type=seconds)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"),
                        help="expected simulated outputs (tests only)")
    return parser.parse_args(argv)


def non_negative(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            "expected an unsigned integer, got %r" % text)
    return int(text)


def seconds(text):
    value = non_negative(text)
    if not 1 <= value <= 600:
        raise argparse.ArgumentTypeError("expected 1..600, got %r" % text)
    return value


def sources():
    """Every file the measuring program is built from."""
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    yield os.path.join(dirpath, name)


def ensure_built():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vboost sources next to perfbench/; run from a checkout")
    if os.path.isfile(BINARY):
        built = os.path.getmtime(BINARY)
        if all(os.path.getmtime(p) <= built for p in sources()):
            return
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "vbbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            code, _, _ = run_child(step, BUILD_TIMEOUT_S,
                                   "build (see %s)" % log_path,
                                   stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see " + log_path)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def digest_args(expected):
    args = []
    for name, digest in sorted(expected["models"].items()):
        args += ["--model-digest", "%s=%s" % (name, digest)]
    return args


def ensure_models(expected):
    """One-off, untimed preparation of missing models. A model that is
    present but stale is not retrained here: the run fails on it."""
    missing = [n for n in expected["models"]
               if not os.path.isfile(os.path.join(MODELS, n + ".bin"))]
    if not missing:
        return
    print("perfbench: preparing models %s (one-off, untimed)"
          % ", ".join(missing), file=sys.stderr)
    code, _, _ = run_child([BINARY, "prepare", "--models", MODELS],
                           BUILD_TIMEOUT_S, "model preparation",
                           stdout=sys.stderr)
    if code != 0:
        fail("model preparation failed")


def provenance_extras():
    """Commit and source digest of the measured code."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sources():
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return {"commit": commit, "source_sha256": h.hexdigest()[:16]}


def measure(workload, args, expected, deadline):
    """Run one workload; return (attempted, failed, metrics dict)."""
    os.makedirs(SPANS, exist_ok=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--models", MODELS] + digest_args(expected)
    spans_path = None
    if args.trace == "1":
        spans_path = os.path.join(SPANS, "%s-seed%d.json"
                                  % (workload, args.seed))
        cmd += ["--spans-out", spans_path]
    # One malloc arena: otherwise peak RSS depends on which pool thread
    # happens to allocate first, and varies by several MB run to run.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    code, stdout, stderr = run_child(
        cmd, deadline - time.monotonic(), workload + " run", env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(stderr)
    if code != 0:
        fail("%s: measuring program exited with %d" % (workload, code))

    want = expected["workloads"][workload]
    on_record = args.seed == expected["recorded_seed"]
    attempted = failed = 0
    reference = None
    metrics = None
    provenance = {}
    for line in stdout.splitlines():
        record = json.loads(line)
        kind = record["kind"]
        if kind == "provenance":
            provenance = record
        elif kind == "unit":
            attempted += 1
            checks = record["checks"]
            if reference is None:
                reference = checks
                print("%s checks: %s" % (workload, json.dumps(checks)))
            target = want if on_record else reference
            if checks != target:
                failed += 1
                print("%s unit %d: outputs differ from %s: %s"
                      % (workload, record["index"],
                         "expected.json" if on_record else "unit 0",
                         json.dumps(checks)), file=sys.stderr)
        elif kind == "replay":
            attempted += 1
            if not record["ok"]:
                failed += 1
                print("%s replay %s (%s pass): replayed output differs "
                      "from the real one"
                      % (workload, record["name"], record["pass"]),
                      file=sys.stderr)
        elif kind == "error":
            attempted += 1
            failed += 1
            where = ("replay" if record["index"] < 0
                     else "unit %d" % record["index"])
            print("%s %s threw: %s" % (workload, where, record["message"]),
                  file=sys.stderr)
        elif kind == "metrics":
            metrics = record["metrics"]
    if metrics is None or attempted == 0:
        fail("%s: measuring program printed no result" % workload)
    provenance.pop("kind", None)
    provenance.update(provenance_extras())
    print("%s provenance: %s" % (workload, json.dumps(provenance)))
    if spans_path:
        print("%s spans: %s" % (workload, spans_path))
    return attempted, failed, metrics


def select(metrics, declared, workload):
    """Exactly the declared metrics; declared ones the workload does not
    exercise read 0."""
    names = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        fail("%s: metrics missing from BENCHMARK.json: %s"
             % (workload, ", ".join(unknown)))
    out = {}
    for name, unit in names.items():
        got = metrics.get(name, {"value": 0.0, "unit": unit})
        if got["unit"] != unit:
            fail("%s: %s has unit %s, BENCHMARK.json says %s"
                 % (workload, name, got["unit"], unit))
        out[name] = {"value": got["value"], "unit": unit}
    return out


def main(argv):
    args = parse_args(argv)
    start = time.monotonic()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(args.expected)
    ensure_built()
    ensure_models(expected)
    declared = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    total_attempted = total_failed = 0
    result_metrics = {}
    for workload in workloads:
        # The time limit applies to each workload run, after the build.
        deadline = time.monotonic() + RUN_TIMEOUT_S
        attempted, failed, raw = measure(workload, args, expected, deadline)
        metrics = select(raw, declared, workload)
        total_attempted += attempted
        total_failed += failed
        for name, m in sorted(metrics.items()):
            print("%s %s = %.6g %s" % (workload, name, m["value"], m["unit"]))
        print("%s fail_frac = %.6g (%d failed / %d checked outputs)"
              % (workload, failed / attempted, failed, attempted))
        prefix = workload + "." if args.workload == "all" else ""
        for name, m in metrics.items():
            result_metrics[prefix + name] = m
    print("perfbench: %.1f s" % (time.monotonic() - start), file=sys.stderr)
    print(json.dumps({"correct": total_failed == 0,
                      "attempted": total_attempted,
                      "failed": total_failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

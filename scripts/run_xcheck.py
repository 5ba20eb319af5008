#!/usr/bin/env python3
"""simscope dynamic cross-check driver.

Runs every simulator-driven test binary in the build tree with the race
checker on, at most os.cpu_count() at a time, each with
DPDPU_SIM_RACE_COVERAGE pointed at its own file, so each RaceChecker
appends the object names it actually observed; then concatenates the
files and invokes `simscope --xcheck` to diff the statically reachable
annotations against that dynamic observation set. A statically
reachable annotation that is never observed is a dead annotation or an
untested path (rule S2) — the static analyzer cannot tell which, but
either one means simrace is not exercising what simscope claims is
covered.

Exit status is simscope's: 0 when every reachable annotation was
observed, 1 otherwise. Binaries that fail under the race checker fail
the run too (a race found on the way to coverage is still a race).
"""

import argparse
import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile

# Simulator-driven gtest binaries (tests/CMakeLists.txt targets). The
# simex explorer binaries are excluded: they run deliberately racy
# schedules with a quiet checker, which would pollute both coverage and
# failure accounting.
TEST_BINARIES = [
    "ce_test",
    "cluster_test",
    "common_test",
    "deflate_test",
    "extension_test",
    "fs_model_test",
    "fssub_test",
    "hw_test",
    "integration_test",
    "kern_test",
    "ne_test",
    "netsub_test",
    "rdma_flow_test",
    "ring_model_test",
    "rt_test",
    "se_test",
    "sim_test",
    "simex_scenarios_test",
    "simex_test",
]


def run_binary(binary, cov_path):
    """Runs one test binary under the checker; returns (rc, stderr)."""
    env = dict(os.environ)
    env["DPDPU_SIM_RACECHECK"] = "1"
    env["DPDPU_SIM_RACE_COVERAGE"] = cov_path
    proc = subprocess.run([binary], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    return proc.returncode, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (default: build)")
    parser.add_argument("--repo-root",
                        default=os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))),
                        help="repository root (default: this script's "
                             "parent's parent)")
    parser.add_argument("--keep-coverage", default=None, metavar="FILE",
                        help="write the merged coverage dump here instead "
                             "of a temp file")
    args = parser.parse_args()

    tests_dir = os.path.join(args.build_dir, "tests")
    missing = [t for t in TEST_BINARIES
               if not os.path.exists(os.path.join(tests_dir, t))]
    if missing:
        print(f"run_xcheck: missing test binaries under {tests_dir}: "
              f"{', '.join(missing)} (build first)", file=sys.stderr)
        return 2

    if args.keep_coverage:
        cov_path = os.path.abspath(args.keep_coverage)
    else:
        fd, cov_path = tempfile.mkstemp(prefix="simscope_cov_",
                                        suffix=".txt")
        os.close(fd)
    cov_dir = tempfile.mkdtemp(prefix="simscope_cov_")

    try:
        # The work runs in child processes, so a thread pool is enough
        # to keep os.cpu_count() binaries running at once.
        parts = [os.path.join(cov_dir, t + ".txt") for t in TEST_BINARIES]
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1) as pool:
            results = list(pool.map(
                run_binary,
                [os.path.join(tests_dir, t) for t in TEST_BINARIES], parts))

        # One run, one dump: the merged file is rewritten, never appended.
        with open(cov_path, "wb") as merged:
            for part in parts:
                if os.path.exists(part):
                    with open(part, "rb") as f:
                        shutil.copyfileobj(f, merged)

        failed = []
        for t, (returncode, stderr) in zip(TEST_BINARIES, results):
            if returncode != 0:
                failed.append(t)
                sys.stderr.buffer.write(stderr)
        if failed:
            print(f"run_xcheck: {len(failed)} test binar"
                  f"{'y' if len(failed) == 1 else 'ies'} failed under "
                  f"the race checker: {', '.join(failed)}",
                  file=sys.stderr)
            return 1

        simscope = os.path.join(args.repo_root, "tools", "simscope",
                                "simscope.py")
        return subprocess.run(
            [sys.executable, simscope, "--xcheck",
             "--coverage", cov_path],
            cwd=args.repo_root).returncode
    finally:
        shutil.rmtree(cov_dir)
        if not args.keep_coverage:
            os.unlink(cov_path)


if __name__ == "__main__":
    sys.exit(main())

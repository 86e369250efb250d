#!/usr/bin/env python3
"""Same-runner A/B performance gate: this checkout against a base rev.

Usage:
    perf_ab.py <base-rev>

Exports <base-rev> with `git archive` (local, no network) into
`.perf_ab/<sha>/` at the repository root, builds `perfbench` in that
tree and in this checkout, each into its own target directory, and runs
`perfbench --workload sim_quick` in PAIRS interleaved pairs, alternating
which side runs first so drift in the host's speed hits both alike.

Each pair gives the ratio candidate / base of `sdu_per_s`. The gate
prints every pair and the median ratio with its min and max, and fails
(exit 1) when the median ratio is below THRESHOLD, when either side
reports `"correct": false`, or when either side fails to build. A bad
command line or an unknown rev exits 2.
"""

import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRATCH = REPO / ".perf_ab"
WORKLOAD = "sim_quick"
SEED = 1
# A run is ~6 s, most of it perfbench's fixed warm-ups; on a shared
# 2-vCPU Xeon host single pairs ranged 0.5-1.5 at 1 s and at 5 s alike,
# so precision comes from the pair count. At 20 pairs an A/A run came
# within 0.006 of the gate; 30 pairs passed 10/10 A/A runs and failed
# 10/10 runs with a planted 16% slowdown.
SECONDS = 1
PAIRS = 30
THRESHOLD = 0.90
METRIC = "sdu_per_s"


def fail(msg, code=1):
    print(f"perf_ab: FAIL: {msg}", file=sys.stderr)
    sys.exit(code)


def export(sha):
    """The base tree at `.perf_ab/<sha>`, exported once and reused: the
    archive's mtimes are the commit's, so its build cache stays valid."""
    tree = SCRATCH / sha
    done = tree / ".exported"
    if done.exists():
        return tree
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", sha],
                               stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(tree, filter="data")
    if archive.wait() != 0:
        fail(f"git archive {sha} failed")
    done.touch()
    return tree


def build(tree, side):
    manifest = tree / "perfbench" / "Cargo.toml"
    target = tree / "perfbench" / "target"
    if not manifest.exists():
        fail(f"{side} has no perfbench/ to build")
    print(f"perf_ab: building {side} perfbench in {tree}", flush=True)
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", str(manifest),
                        "--target-dir", str(target)], check=False)
    if r.returncode != 0:
        fail(f"{side} perfbench failed to build")
    return target / "release" / "perfbench"


def measure(binary, tree, side):
    r = subprocess.run([str(binary), "--workload", WORKLOAD,
                        "--seed", str(SEED), "--seconds", str(SECONDS),
                        "--trace", "0"],
                       cwd=tree, capture_output=True, text=True, check=False)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{side} printed no result (exit {r.returncode}):\n{r.stderr}")
    if result.get("correct") is not True:
        fail(f"{side} reported incorrect results: {lines[-1]}")
    return result["metrics"][METRIC]["value"]


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    rev = sys.argv[1]
    r = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify",
                        "--quiet", f"{rev}^{{commit}}"],
                       capture_output=True, text=True, check=False)
    if r.returncode != 0:
        fail(f"unknown rev {rev!r}", code=2)
    sha = r.stdout.strip()
    base_tree = export(sha)
    base = build(base_tree, f"base {sha[:12]}")
    cand = build(REPO, "candidate")

    ratios = []
    for i in range(PAIRS):
        if i % 2 == 0:
            b = measure(base, base_tree, "base")
            c = measure(cand, REPO, "candidate")
        else:
            c = measure(cand, REPO, "candidate")
            b = measure(base, base_tree, "base")
        ratios.append(c / b)
        first = "base" if i % 2 == 0 else "candidate"
        print(f"pair {i + 1:2}/{PAIRS} ({first} first): base {b:12.0f}  "
              f"candidate {c:12.0f} {METRIC}  ratio {c / b:.3f}",
              flush=True)

    med = statistics.median(ratios)
    print(f"perf_ab: {WORKLOAD} {METRIC} candidate/base over {PAIRS} pairs: "
          f"median {med:.3f} (min {min(ratios):.3f}, max {max(ratios):.3f}); "
          f"gate {THRESHOLD:.2f}")
    if med < THRESHOLD:
        fail(f"median ratio {med:.3f} < {THRESHOLD:.2f} against {sha[:12]}")
    print("perf_ab: OK")


if __name__ == "__main__":
    main()

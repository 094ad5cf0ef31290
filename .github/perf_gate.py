#!/usr/bin/env python3
"""Host-time regression gate over the workloads BENCHMARK.json declares.

Runs every workload through BENCHMARK.json's command (perfbench) for
GATE_SECONDS, keeps each run's stdout in perf-out/<workload>.txt under the
current directory, and reads the JSON object on its last line. The gate
fails when a run exits non-zero, when its outputs do not check (`correct`
is not true, or `failed` is not 0), when a workload has no baseline entry,
or when its host-scaled `wall_s` exceeds BOUND times the committed
baseline.

    python3 .github/perf_gate.py           # run and check (CI)
    python3 .github/perf_gate.py --bless   # measure a new baseline

--bless runs for BENCHMARK.json's run_seconds instead and writes the
baseline from the runs, recording the command and the commit it measured.
"""

import argparse
import json
import os
import subprocess
import sys

BOUND = 1.25
GATE_SECONDS = 20
OUT_DIR = "perf-out"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, ".github", "perf-baseline.json")


def last_json_line(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty output")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bless", action="store_true", help=f"write {BASELINE} from the runs")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.bless else GATE_SECONDS
    os.makedirs(OUT_DIR, exist_ok=True)

    results, problems = {}, []
    for w in workloads:
        out = os.path.join(OUT_DIR, f"{w}.txt")
        cmd = bench["command"] + ["--workload", w, "--seconds", str(seconds)]
        print("$ " + " ".join(cmd), flush=True)
        with open(out, "w") as f:
            code = subprocess.run(cmd, cwd=ROOT, stdout=f, check=False).returncode
        if code != 0:
            problems.append(f"{w}: perfbench exited with status {code} (output in {out})")
            continue
        try:
            res = last_json_line(out)
            wall = res["metrics"]["wall_s"]["value"]
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"{w}: no result in {out} ({e!r})")
            continue
        if res.get("correct") is not True:
            problems.append(f"{w}: output check failed (correct = {json.dumps(res.get('correct'))})")
        if res.get("failed") != 0:
            problems.append(f"{w}: {res.get('failed')} of {res.get('attempted')} checks failed")
        results[w] = wall

    if args.bless:
        if problems:
            sys.exit("cannot bless:\n  " + "\n  ".join(problems))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
        doc = {
            "command": " ".join(bench["command"]
                                + ["--workload", "<name>", "--seconds", str(seconds)]),
            "commit": commit,
            "wall_s": {w: round(results[w], 4) for w in workloads},
        }
        with open(BASELINE, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {BASELINE}")
        return

    with open(BASELINE) as f:
        baseline = json.load(f)["wall_s"]
    for w, wall in results.items():
        base = baseline.get(w)
        if base is None:
            problems.append(f"{w}: no baseline entry in {BASELINE}")
            continue
        ratio = wall / base
        verdict = "ok" if ratio <= BOUND else "FAIL"
        print(f"{w:<12} wall_s {wall:8.3f} s  baseline {base:8.3f} s  ratio {ratio:5.2f}  {verdict}")
        if ratio > BOUND:
            problems.append(f"{w}: wall_s {wall:.3f} s is {ratio:.2f}x the baseline "
                            f"{base:.3f} s (bound {BOUND}x)")
    if problems:
        sys.exit("perf gate failed:\n  " + "\n  ".join(problems))
    print(f"perf gate passed: {len(results)} workloads within {BOUND}x of {BASELINE}")


if __name__ == "__main__":
    main()

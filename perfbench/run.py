#!/usr/bin/env python3
"""Repository benchmark for skimjoin.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n> --seconds <s> --trace <0|1>]
    python3 perfbench/run.py --smoke

Builds the library and the skimbench program from source (Release) into
.bench_build/ at the root of the checkout, runs one workload, and prints the
report of skimbench followed, as the last line, by one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Any failed operation or output check, a missing metric or a failed build
exits non-zero without printing a result. `--workload all` runs every
workload in turn and prints each one's report and result line.

Each per-layer row belongs to the workload that exercises its layer (the
`workload` field of perfbench/spec.json; `all` for the per-workload ledger
and tracing-overhead rows). A traced run of one workload therefore also
runs, for a quarter of --seconds each, the traced runs of the workloads
that own the other rows, takes every row from its owner's run, and prints
which run each row came from.

--smoke runs every workload once at tiny sizes, untraced and traced, and
checks that each reports every metric it owns in BENCHMARK.json and
perfbench/spec.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "skimbench"
RUN_DIR = BUILD / "run"
RUN_TIMEOUT_S = 170
# Share of --seconds given to the traced runs of the workloads that own the
# per-layer rows a traced workload does not exercise itself.
OWNER_SHARE = 0.25


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "skimbench"]]
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def run_skimbench(workload, seed, seconds, trace, smoke=False):
    """Runs skimbench; returns (report lines, parsed result)."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", os.path.relpath(RUN_DIR, ROOT)]
    if smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout[-6000:] + result.stderr[-2000:])
        fail(f"{workload} (trace {trace}) exited with {result.returncode}")
    try:
        parsed = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line of skimbench is not JSON")
    if not parsed.get("correct") or parsed.get("failed", 1) != 0:
        sys.stderr.write(result.stdout[-6000:])
        fail(f"{workload}: output checks failed")
    return lines[:-1], parsed


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "spec.json") as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for metric in bench[group]:
            described = spec["metrics"].get(metric["name"])
            if described is None:
                fail(f"spec.json does not describe {metric['name']}")
            for key in ("unit", "better"):
                if key in metric and described[key] != metric[key]:
                    fail(f"{metric['name']}: {key} differs between "
                         "BENCHMARK.json and spec.json")
    workloads = {w["name"] for w in bench["workloads"]} | {"all"}
    for metric in bench["per_layer"]:
        if spec["metrics"][metric["name"]]["workload"] not in workloads:
            fail(f"spec.json gives {metric['name']} no known workload")
    return bench, spec


def select(parsed, wanted, workload):
    metrics = {}
    for metric in wanted:
        got = parsed["metrics"].get(metric["name"])
        if got is None:
            fail(f"{workload}: skimbench did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            fail(f"{workload}: {metric['name']} reported in {got['unit']}, "
                 f"expected {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def owner(spec, name, workload):
    """The workload whose traced run a per-layer row is taken from."""
    owned_by = spec["metrics"][name]["workload"]
    return workload if owned_by == "all" else owned_by


def owned(bench, spec, trace, workload):
    """The metrics `workload`'s own run must report: every end-to-end and
    printed metric untraced, the per-layer rows it owns traced."""
    if not trace:
        return [n for n, m in spec["metrics"].items()
                if m["group"] in ("end_to_end", "printed")]
    return [m["name"] for m in bench["per_layer"]
            if owner(spec, m["name"], workload) == workload]


def traced(bench, spec, workload, seed, seconds, smoke=False):
    """Runs `workload` traced, plus the traced runs of the workloads owning
    its other per-layer rows; returns (lines, attempted, failed, metrics)."""
    names = [w["name"] for w in bench["workloads"]]
    sources = [workload] + [
        w for w in names if w != workload and any(
            owner(spec, m["name"], workload) == w for m in bench["per_layer"])]
    lines, attempted, failed, runs = [], 0, 0, {}
    for source in sources:
        share = seconds if source == workload else max(1, seconds * OWNER_SHARE)
        report, parsed = run_skimbench(source, seed, share, 1, smoke)
        lines.append(f"== traced {source} for {share:g} s")
        lines += report
        attempted += parsed["attempted"]
        failed += parsed["failed"]
        runs[source] = parsed
    metrics = {}
    for metric in bench["per_layer"]:
        source = owner(spec, metric["name"], workload)
        metrics.update(select(runs[source], [metric], source))
        lines.append(f"layer {metric['name']} from the traced {source} run")
    return lines, attempted, failed, metrics


def smoke(bench, spec):
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            _, parsed = run_skimbench(workload, 1, 1, trace, smoke=True)
            for name in owned(bench, spec, trace, workload):
                if name not in parsed["metrics"]:
                    fail(f"{workload} (trace {trace}) lacks {name}")
            print(f"smoke {workload} trace={trace}: {len(parsed['metrics'])} "
                  f"metrics, {parsed['attempted']} ops, 0 failed")
    _, _, _, metrics = traced(bench, spec, bench["workloads"][0]["name"], 1,
                              1, smoke=True)
    print(f"smoke per-layer result: {len(metrics)} rows")
    print("smoke ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    bench, spec = load_spec()
    build()
    if args.smoke:
        smoke(bench, spec)
        return
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"--workload must be all or one of {', '.join(names)}")
    for workload in names if args.workload == "all" else [args.workload]:
        if args.trace:
            lines, attempted, failed, metrics = traced(
                bench, spec, workload, args.seed, args.seconds)
        else:
            lines, parsed = run_skimbench(workload, args.seed, args.seconds, 0)
            attempted, failed = parsed["attempted"], parsed["failed"]
            metrics = select(parsed, bench["end_to_end"], workload)
        for line in lines:
            print(line)
        print(json.dumps({"correct": True, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()

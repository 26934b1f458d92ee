#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the root of the repository:

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs one request and checks that
every end-to-end metric is reported with its unit; runs one traced
request and checks every per-layer metric, and that the layers' self
times plus `trace.unattributed_ms` add up to the traced request latency;
and checks that a corrupted reference makes the benchmark fail.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--requests", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_metrics(result, specs, what):
    metrics = result["metrics"]
    for spec in specs:
        m = metrics.get(spec["name"])
        assert m is not None, f"{what}: {spec['name']} missing"
        assert m["unit"] == spec["unit"], f"{what}: {spec['name']} has unit {m['unit']}"
        assert isinstance(m["value"], (int, float)), f"{what}: {spec['name']} is not a number"
    assert set(metrics) == {s["name"] for s in specs}, f"{what}: unexpected metrics"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]

        code, lines, err = run(name, 0)
        assert code == 0, f"{name}: exit {code}\n{err}"
        result = json.loads(lines[-1])
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, result
        check_metrics(result, bench["end_to_end"], name)

        code, lines, err = run(name, 1)
        assert code == 0, f"{name} traced: exit {code}\n{err}"
        result = json.loads(lines[-1])
        check_metrics(result, bench["per_layer"], f"{name} traced")
        trace = json.loads(next(l for l in lines if l.startswith("trace: "))[len("trace: "):])
        total = sum(trace["self_ms"].values()) + trace["unattributed_ms"]
        assert abs(total - trace["latency_ms"]) <= 1e-6 * trace["latency_ms"], (name, total, trace)
        assert result["metrics"]["trace.unattributed_ms"]["value"] == trace["unattributed_ms"]
        for layer, value in trace["self_ms"].items():
            assert result["metrics"][layer]["value"] == value, (name, layer)

        code, lines, err = run(name, 0, "--corrupt-reference")
        assert code != 0, f"{name}: a corrupted reference must fail the run"
        assert json.loads(lines[-1])["correct"] is False
        print(f"ok {name}")
    print("smoke: ok")


if __name__ == "__main__":
    main()

"""Benchmark of the bockstein library: four workloads, one result line.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 20 --trace 0

runs one workload and prints, as the last line of stdout, a JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
they are its per-layer metrics, and a trace file is written under
perfbench/out/.  Without --workload every workload runs, each in a
fresh process, and a table of all metrics is printed.  --smoke runs
every workload at minimal size, traced and untraced, and checks that
every metric of BENCHMARK.json is emitted with its unit.

Every output is checked against references that share no code with the
library (perfbench/refs.py, tests/oracles.py, tests/golden/); the exit
code is nonzero when any op failed.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
from workloads import WORKLOADS, cli_env, clock  # noqa: E402

ROOT = str(refs.ROOT)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
COLD_SAMPLES = 3
L3_PROBE_LIMIT_S = 20
TAIL_MIN_BEYOND = 10
# Printed with every untraced run and kept in `detail`, but not gated in
# BENCHMARK.json: their spread between runs here (20-29% between the
# quartiles) exceeds the largest bound a gated metric may have.
REPORTED_ONLY = {"latency_p50_ms": "ms", "latency_tail_ms": "ms"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment(seed):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {"machine": platform.machine(), "platform": platform.platform(),
            "processor": platform.processor() or None,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "seed": seed}


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    idx = max(0, math.ceil(n * pct / 100) - 1)
    return sorted_values[idx], n - idx - 1


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, timeout, env=None):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=env or child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def setup_samples(name, seed, smoke, count):
    """Set-up time of fresh processes: import plus input construction."""
    argv = [os.path.join(HERE, "run.py"), "--workload", name, "--seed",
            str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    return [json.loads(run_child(argv, 120).splitlines()[-1])["setup_s"]
            for _ in range(count)]


# -- untraced run ------------------------------------------------------------

def measure(wl, inputs, seconds, smoke):
    """Whole passes until the next one would end after `seconds`, and at
    least enough ops for the tail percentile to have ten beyond it."""
    min_ops = 1 if smoke else -(-TAIL_MIN_BEYOND * 100
                                // (100 - wl.tail_pct))
    passes = []
    start = clock()
    ops = 0
    while True:
        res = wl.run_pass(inputs, len(passes))
        passes.append(res)
        ops += len(res.latencies)
        elapsed = clock() - start
        typical = statistics.median(p.wall for p in passes)
        if smoke or len(passes) >= len(inputs["passes"]) or (
                ops >= min_ops and elapsed + typical > seconds):
            return passes


def end_to_end(wl, passes, setup_s, rss_mb):
    lat = sorted(x for p in passes for x in p.latencies)
    tail, beyond = percentile(lat, wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(p.wall for p in passes),
        "ops_per_s": statistics.median(len(p.latencies) / p.wall
                                       for p in passes),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail * 1000 if beyond >= TAIL_MIN_BEYOND
        else None,
        "peak_rss_mb": rss_mb,
    }
    detail = {"passes": len(passes), "ops": len(lat),
              "tail_percentile": wl.tail_pct, "tail_beyond": beyond,
              "setup_samples_s": setup_s}
    return metrics, detail


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


# -- traced run --------------------------------------------------------------

def cold_start():
    """cli import and interpreter start-up, each in fresh processes."""
    def timed_import(module):
        code = ("import time; t = time.perf_counter(); import " + module
                + "; print(time.perf_counter() - t)")
        return float(run_child(["-c", code], 120, cli_env()))

    def interpreter():
        t0 = clock()
        run_child(["-c", "pass"], 60, cli_env())
        return clock() - t0

    return {
        "cli.import_s": statistics.median(
            timed_import("bockstein.cli") for _ in range(COLD_SAMPLES)),
        "cli.import_sympy_s": statistics.median(
            timed_import("sympy") for _ in range(COLD_SAMPLES)),
        "cli.interpreter_s": statistics.median(
            interpreter() for _ in range(COLD_SAMPLES)),
    }


def l3_probe():
    """Integral homology of L_3 for p = 2 in a child under a time limit;
    a run that does not finish is recorded as "timeout"."""
    argv = [os.path.join(HERE, "run.py"), "--l3-probe"]
    t0 = clock()
    try:
        out = run_child(argv, L3_PROBE_LIMIT_S)
        result = json.loads(out.splitlines()[-1])
    except subprocess.TimeoutExpired:
        result = "timeout"
    return {"p": 2, "limit_s": L3_PROBE_LIMIT_S, "wall_s": clock() - t0,
            "result": result,
            "children_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}


def traced(wl, inputs, seed):
    """One untraced and one traced pass, then the smoke-size pass of every
    other workload, so that each layer metric is measured in every
    traced run; returns (metrics, passes, trace)."""
    import layers
    from tracer import Tracer

    run = wl.replay if wl.name == "cli-queries" else wl.run_pass
    plain = run(inputs, 0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced_pass = run(inputs, 0, tracer)
        probe_passes = []
        for other in WORKLOADS.values():
            if other is wl:
                continue
            other_inputs = other.setup(seed, smoke=True)
            other_run = (other.replay if other.name == "cli-queries"
                         else other.run_pass)
            probe_passes.append(other_run(other_inputs, 0, tracer))
    finally:
        tracer.restore()
    metrics = layers.metrics(tracer)
    metrics.update(cold_start())
    metrics["bench.tracing_overhead_s"] = traced_pass.wall - plain.wall
    trace = {"untraced_pass_s": plain.wall, "traced_pass_s": traced_pass.wall,
             "probe_workloads": [o.name for o in WORKLOADS.values()
                                 if o is not wl],
             "stats": {k: v.to_json() for k, v in sorted(
                 tracer.stats.items())},
             "counters": tracer.counters,
             "spans": tracer.spans_json()}
    if wl.name == "homology-int":
        trace["l3_probe"] = l3_probe()
    return metrics, [plain, traced_pass] + probe_passes, trace


# -- one workload ------------------------------------------------------------

def run_workload(args):
    bench = spec()
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    if not args.setup_only:
        # Write the bytecode cache, as an installed package has it, so
        # that set-up times an import from the cache in every run.
        run_child(["-c", "import bockstein.cli"], 120, cli_env())
    t0 = clock()
    inputs = wl.setup(args.seed, args.smoke)
    setup_main = clock() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0

    if args.trace:
        raw, passes, trace = traced(wl, inputs, args.seed)
        wanted = bench["per_layer"]
        detail = {}
    else:
        passes = measure(wl, inputs, args.seconds, args.smoke)
        who = (resource.RUSAGE_CHILDREN if wl.name == "cli-queries"
               else resource.RUSAGE_SELF)
        rss = peak_rss_mb(who)
        extra = setup_samples(wl.name, args.seed, args.smoke,
                              1 if args.smoke else SETUP_SAMPLES - 1)
        raw, detail = end_to_end(wl, passes, [setup_main] + extra, rss)
        wanted = bench["end_to_end"]
        trace = None

    failures = [f for p in passes for f in p.failures()]
    attempted = sum(len(p.latencies) for p in passes)
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]}
               for m in wanted}
    shown = dict(metrics)
    if not args.trace:
        detail["reported"] = {name: {"value": raw[name], "unit": unit}
                              for name, unit in REPORTED_ONLY.items()}
        shown.update(detail["reported"])
    detail.update({"workload": wl.name, "env": env,
                   "error_rate": len(failures) / attempted,
                   "failures": failures[:20]})
    if trace is not None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out",
                            f"trace-{wl.name}-seed{args.seed}.json")
        trace.update({"workload": wl.name, "env": env, "metrics": raw,
                      "error_rate": detail["error_rate"]})
        with open(path, "w") as fh:
            json.dump(trace, fh, indent=1, sort_keys=True)
        detail["trace_file"] = os.path.relpath(path, ROOT)
        if "l3_probe" in trace:
            detail["l3_probe"] = trace["l3_probe"]
    for name, m in shown.items():
        print(f"{wl.name:15s} {name:40s} {fmt(m['value']):>14s} {m['unit']}")
    print(f"{wl.name:15s} {'error_rate':40s} "
          f"{fmt(detail['error_rate']):>14s} ratio")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"result": result, "detail": detail}, fh, indent=1,
                      sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 1 if failures else 0


def fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# -- every workload ----------------------------------------------------------

def run_all(args):
    """Each workload in a fresh process; a table of every metric."""
    bench = spec()
    results, details = {}, {}
    for name in WORKLOADS:
        traces = (0, 1) if args.smoke else (args.trace,)
        for trace in traces:
            argv = [os.path.join(HERE, "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds",
                    str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run([sys.executable, *argv] + (
                ["--smoke"] if args.smoke else []), cwd=ROOT,
                env=child_env(), capture_output=True, text=True,
                timeout=1800)
            lines = proc.stdout.splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise RuntimeError(f"{name} (trace {trace}) printed no "
                                   f"result; exit {proc.returncode}")
            for line in lines[:-1]:
                if not line.startswith("detail "):
                    print(line)
            results[(name, trace)] = json.loads(lines[-1])
            details[(name, trace)] = next(
                (json.loads(line[len("detail "):]) for line in lines
                 if line.startswith("detail ")), {})
    problems = []
    for (name, trace), res in results.items():
        wanted = bench["per_layer" if trace else "end_to_end"]
        for m in wanted:
            got = res["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"]:
                problems.append(f"{name} trace {trace}: {m['name']} "
                                f"missing or without its unit")
        if not res["correct"]:
            problems.append(f"{name} trace {trace}: "
                            f"{res['failed']} failed ops")
    for problem in problems:
        print("problem: " + problem)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": environment(args.seed),
                       "run_seconds": args.seconds,
                       "results": {f"{n}/trace{t}": {
                           "result": r, "detail": details[(n, t)]}
                           for (n, t), r in results.items()}},
                      fh, indent=1, sort_keys=True)
    summary = {"correct": not problems,
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{k}": v for (n, t), r in results.items()
                           for k, v in r["metrics"].items()}}
    if args.smoke:
        print("smoke: " + ("ok" if not problems else "FAILED"))
    print(json.dumps(summary, sort_keys=True))
    return 1 if problems else 0


def l3_probe_child():
    from bockstein import chains, simplicial
    stages, _ = simplicial.pontryagin_stage(2, 2)
    t0 = clock()
    groups = chains.integral_homology(stages[-1].chain_complex())
    print(json.dumps({"seconds": clock() - t0, "groups": groups}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes; with no --workload, check that "
                         "every metric of BENCHMARK.json is emitted")
    ap.add_argument("--out", help="also write the result to this file")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--l3-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "bockstein")):
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.l3_probe:
        return l3_probe_child()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

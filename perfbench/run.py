#!/usr/bin/env python3
"""Wall-clock benchmark of the partitioned co-simulation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --make-goldens

Run from the root of a checkout. The first call builds the simulator
libraries from src/ plus the driver in perfbench/driver/ (Release,
under .bench_build/, or $CARGO_TARGET_DIR when set). A run writes a
seeded job plan, hands it to the driver, checks every job against
perfbench/goldens.json, prints a table of metrics and, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. See perfbench/README.md for every metric's definition.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
DRIVER_TIMEOUT_S = 150

# Every environment variable the simulator reads. The driver clears
# them as well; clearing them here keeps them away from the build too.
PINNED_ENV = ["FIREAXE_EVAL", "FIREAXE_BATCH_DEPTH",
              "FIREAXE_PIPELINED_EPOCHS", "FIREAXE_SNAPSHOT_DIR",
              "FIREAXE_STREAM", "FIREAXE_NO_VERIFY"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pinned_env():
    env = dict(os.environ)
    for name in PINNED_ENV:
        env.pop(name, None)
    return env


def bench_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then (re)build the driver; returns its path."""
    if not (ROOT / "src" / "svc" / "jobrunner.hh").is_file():
        raise SystemExit("perfbench: no simulator sources under "
                         f"{ROOT / 'src'}; run from a full checkout")
    out = bench_dir() / "perfbench"
    env = pinned_env()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j",
                    str(min(4, nproc()))],
                   check=True, env=env, stdout=sys.stderr)
    return out / "perfbench_driver"


def run_driver(driver, command, plan, workdir, extra=()):
    """Run the driver on a plan and return its records. A run cut
    short by the timeout keeps the records it printed; the jobs it
    never reported count as failed."""
    workdir.mkdir(parents=True, exist_ok=True)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen([str(driver), command, str(plan_path),
                             *extra],
                            stdout=subprocess.PIPE, env=pinned_env(),
                            text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S}s; killed")
    if proc.returncode != 0:
        log(f"perfbench: driver exited with {proc.returncode}")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            log(f"perfbench: unparsable driver line: {line[:120]}")
    return records


def make_goldens(driver):
    plan = workloads.golden_plan()
    workdir = bench_dir() / "work" / "golden"
    records = run_driver(driver, "golden", plan, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    goldens = {}
    for r in records:
        if r.get("kind") != "golden" or not r["ok"]:
            raise SystemExit(f"perfbench: reference run failed: {r}")
        key = workloads.golden_key(r["target"], r["mode"], r["cycles"])
        goldens[key] = {"trace_hash": r["trace_hash"],
                        "final_sig": r["final_sig"]}
    if len(goldens) != len(plan["groups"]):
        raise SystemExit("perfbench: missing reference runs")
    GOLDENS.write_text(json.dumps({
        "reference": "engine interpret, batch depth 1, no faults, "
                     "no snapshots, no stream",
        "goldens": dict(sorted(goldens.items())),
    }, indent=1) + "\n")
    log(f"perfbench: wrote {len(goldens)} goldens to {GOLDENS}")


def split(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r.get("kind"), []).append(r)
    return kinds


def key_of(spec):
    return workloads.golden_key(spec["target"], spec["mode"],
                                spec["cycles"])


def fmt(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-goldens", action="store_true")
    args = ap.parse_args()
    if not args.make_goldens and not args.workload:
        ap.error("--workload is required")

    driver = build()
    if args.make_goldens:
        make_goldens(driver)
        return 0
    goldens = json.loads(GOLDENS.read_text())["goldens"]

    cores = nproc()
    workdir = bench_dir() / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.make_plan(args.workload, args.seed, args.seconds,
                               cores, str(workdir))
    extra = ["--trace"] if args.trace else []
    kinds = split(run_driver(driver, "run", plan, workdir, extra))
    shutil.rmtree(workdir, ignore_errors=True)

    groups = plan["groups"]
    jobs = kinds.get("job", [])
    for j in jobs:
        j["golden_key"] = key_of(groups[j["group"]]["spec"])
    probes = kinds.get("probe", [])
    for p in probes:
        p["golden_key"] = workloads.golden_key(p["target"], p["mode"],
                                               p["target_cycles"])
    rounds = kinds.get("round", [])
    planned = sum(groups[g]["copies"] for order in plan["rounds"]
                  for g in order)
    attempted, failed, reasons = metrics.account(planned, jobs, goldens)
    if args.trace:
        whys = [metrics.probe_failure(p, goldens) for p in probes]
        whys += ["probe not prepared"] * len(kinds.get("probe_error", []))
        for why in filter(None, whys):
            reasons[why] = reasons.get(why, 0) + 1
            failed += 1
        attempted += len(whys)
    env = (kinds.get("env") or [{}])[0]
    rss = (kinds.get("rusage") or [{"peak_rss_kb": 0}])[0]["peak_rss_kb"]
    complete = (len(rounds) == len(plan["rounds"]) and "rusage" in kinds
                and (not args.trace or bool(probes)))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(plan['rounds'])}  runner {plan['runner']}  "
          f"workers {plan['workers']}")
    print(f"env build_type={env.get('build_type')}  "
          f"compiler={env.get('compiler')}  nproc={cores}  "
          f"hardware_threads={env.get('hardware_threads')}")
    print(f"jobs attempted {attempted}  failed {failed}  "
          f"error_rate {fmt(metrics.error_rate(attempted, failed))}"
          + (f"  ({reasons})" if reasons else ""))

    result = {}
    if complete and not args.trace:
        e2e, quantiles = metrics.end_to_end(rounds, jobs, rss)
        print(f"latency over {quantiles['samples']} jobs; quantiles "
              f"used: p50 -> q{quantiles['p50']:.3f}, "
              f"p90 -> q{quantiles['p90']:.3f}")
        for name, unit, better, clock in metrics.END_TO_END:
            print(f"  {name:<28} {fmt(e2e[name]):>14} {unit:<6} "
                  f"{better:<6} {clock}")
            result[name] = {"value": e2e[name], "unit": unit}
        name, unit, better, clock = metrics.ERROR_RATE
        print(f"  {name:<28} "
              f"{fmt(metrics.error_rate(attempted, failed)):>14} "
              f"{unit:<6} {better:<6} {clock}")
    elif complete:
        layers = metrics.per_layer(rounds, jobs, kinds.get("artifact", []),
                                   kinds.get("mono", []), probes)
        for name, unit in metrics.PER_LAYER:
            print(f"  {name:<36} {fmt(layers[name]):>14} {unit}")
            result[name] = {"value": layers[name], "unit": unit}
        print("per target (not named metrics):")
        for row in metrics.per_target(kinds.get("mono", []), probes):
            print(f"  {row['target']:<10} partitioned "
                  f"{row['partitioned_cycles_per_s']:>12.6g}/s  mono "
                  f"{row['mono_cycles_per_s']:>12.6g}/s  overhead "
                  f"{row['partition_overhead_x']:>8.4g}x  idle "
                  f"{row['idle_tick_share']:.4f}")

    print(json.dumps({"correct": complete and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

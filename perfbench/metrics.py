"""The benchmark's arithmetic: job accounting against goldens,
percentiles, and every metric's definition. Pure functions over the
driver's records, so test_metrics.py can check them on synthetic
inputs.

Records (one JSON object per driver output line) by "kind":
  job      one submission: group, latency_ns, queue_wait_ns, terminal,
           exit_code and its protocol line (svc resultLine/errorLine)
  round    one round: wall_ns, jobs, distinct_artifacts and the
           elab/verify/program cache shard counts
  artifact per elaboration: module timings in ms
  mono     per target: monolithic compiled-engine cycles/s
  probe    per configuration: run-phase timings and exact counts
  rusage   peak_rss_kb of the driver process
"""

import math
import statistics

# Samples a reported percentile must leave beyond it.
TAIL_SAMPLES = 10

# Exit codes (svc::RunOutcome): 0 ok, 4 deadlock, anything else a
# failure.
EXIT_DEADLOCK = 4

END_TO_END = [
    # name, unit, better, clock
    ("sim_cycles_per_s", "1/s", "higher", "host"),
    ("setup_s", "s", "lower", "host"),
    ("jobs_per_s", "1/s", "higher", "host"),
    ("job_latency_p50_s", "s", "lower", "host"),
    ("job_latency_p90_s", "s", "lower", "host"),
    ("modeled_mhz", "MHz", "higher", "modeled"),
    ("peak_rss_mb", "MB", "lower", "host"),
]

# error_rate is printed with the end-to-end table but is not a JSON
# metric: it is 0 when the program is right, and the result line's
# "failed"/"attempted" already carry it.
ERROR_RATE = ("error_rate", "ratio", "lower", "count")

PER_LAYER = [
    ("svc.queue_wait_ms_p50", "ms"),
    ("svc.cache.elab_hit_ratio", "ratio"),
    ("svc.cache.verify_hit_ratio", "ratio"),
    ("svc.cache.program_hit_ratio", "ratio"),
    ("svc.cache.builds_per_artifact", "ratio"),
    ("svc.trace_hash_share", "ratio"),
    ("ripper.partition_ms", "ms"),
    ("verify.verify_plan_ms", "ms"),
    ("analyze.batch_annotate_ms", "ms"),
    ("rtlsim.init_ms_cold", "ms"),
    ("rtlsim.init_ms_warm", "ms"),
    ("rtlsim.eval_calls", "count"),
    ("rtlsim.nodes_evaluated_per_eval", "count"),
    ("rtlsim.mono_cycles_per_s", "1/s"),
    ("platform.host_cycles", "count"),
    ("platform.idle_tick_share", "ratio"),
    ("platform.wall_ns_per_host_cycle", "ns"),
    ("platform.partition_overhead_x", "x"),
    ("libdn.fires", "count"),
    ("libdn.advances", "count"),
    ("libdn.wait_share", "ratio"),
    ("transport.retransmits", "count"),
    ("transport.retransmits_per_ktoken", "count"),
    ("recovery.snapshot_ms", "ms"),
    ("recovery.snapshot_bytes", "bytes"),
    ("obs.stream_bytes_per_kcycle", "bytes"),
    ("obs.stream_overhead_share", "ratio"),
    ("trace.instrumented_run_x", "x"),
]


def ratio(num, den):
    """num / den, or 0.0 when there is nothing to divide by."""
    return num / den if den else 0.0


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 1])."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(n, q, beyond=TAIL_SAMPLES):
    """The highest quantile <= q that leaves at least `beyond` of n
    sorted samples strictly after its lower rank."""
    if n <= beyond:
        return 0.0
    if math.floor(q * (n - 1)) <= n - 1 - beyond:
        return q
    return (n - 1 - beyond) / (n - 1)


def tail_percentile(values, q, beyond=TAIL_SAMPLES):
    """(value, quantile used): the percentile rule for reported
    latencies — the highest percentile up to q with at least `beyond`
    samples beyond it."""
    used = tail_quantile(len(values), q, beyond)
    return percentile(values, used), used


def job_failure(job, goldens):
    """Why a job counts as failed, or None when it passed. A job fails
    on a missing terminal line, an error line, a nonzero exit, a
    deadlock, a missing golden, or a trace_hash/final_sig mismatch."""
    if job.get("terminal") != "result":
        return "missing terminal line" if job.get("terminal") == \
            "missing" else "error line"
    line = job.get("line") or {}
    if line.get("deadlocked") or job.get("exit_code") == EXIT_DEADLOCK:
        return "deadlock"
    if job.get("exit_code") != 0 or not line.get("ok"):
        return "nonzero exit"
    golden = goldens.get(job.get("golden_key"))
    if golden is None:
        return "no golden"
    if line.get("trace_hash") != golden["trace_hash"]:
        return "trace_hash mismatch"
    if line.get("final_sig") != golden["final_sig"]:
        return "final_sig mismatch"
    return None


def probe_failure(probe, goldens):
    """A traced probe's instrumented run and its copy of the hash
    monitor must both reproduce the golden."""
    if not probe.get("ok"):
        return "probe run failed"
    golden = goldens.get(probe.get("golden_key"))
    if golden is None:
        return "no golden"
    if probe.get("trace_hash") != golden["trace_hash"] or \
            probe.get("final_sig") != golden["final_sig"]:
        return "instrumented run mismatch"
    if probe.get("monitor_trace_hash") != golden["trace_hash"]:
        return "monitor copy mismatch"
    return None


def account(planned, jobs, goldens):
    """(attempted, failed, reasons). `planned` submissions were
    attempted; each one without a passing job record failed."""
    reasons = {}
    passed = 0
    for job in jobs:
        why = job_failure(job, goldens)
        if why is None:
            passed += 1
        else:
            reasons[why] = reasons.get(why, 0) + 1
    missing = planned - len(jobs)
    if missing > 0:
        reasons["never finished"] = missing
    return planned, planned - passed, reasons


def error_rate(attempted, failed):
    return ratio(failed, attempted)


def round_metrics(jobs):
    """End-to-end figures of one round from its passing jobs' result
    lines (sums over jobs, then one division)."""
    lines = [j["line"] for j in jobs if j.get("terminal") == "result"]
    cycles = sum(l["cycles"] for l in lines)
    run_ns = sum(l["run_ns"] for l in lines)
    modeled_ns = sum(l["host_time_ns"] for l in lines)
    setup_ns = sum(l["elaborate_ns"] + l["verify_ns"] + l["init_ns"]
                   for l in lines)
    return {
        "sim_cycles_per_s": ratio(cycles, run_ns / 1e9),
        "setup_s": setup_ns / 1e9,
        "modeled_mhz": ratio(cycles, modeled_ns) * 1e3,
    }


def end_to_end(rounds, jobs, peak_rss_kb):
    """Every end-to-end metric: per-round figures reduced by their
    median over rounds; latencies pooled over all rounds under the
    percentile rule. Also returns the latency quantiles used and the
    sample count."""
    by_round = {}
    for j in jobs:
        by_round.setdefault(j["round"], []).append(j)
    per_round = []
    for r in rounds:
        mine = by_round.get(r["round"], [])
        m = round_metrics(mine)
        done = sum(1 for j in mine if j.get("terminal") == "result")
        m["jobs_per_s"] = ratio(done, r["wall_ns"] / 1e9)
        per_round.append(m)
    out = {name: statistics.median(m[name] for m in per_round)
           for name in ("sim_cycles_per_s", "setup_s", "jobs_per_s",
                        "modeled_mhz")}
    lat = [j["latency_ns"] / 1e9 for j in jobs
           if j.get("terminal") == "result"]
    out["job_latency_p50_s"], q50 = tail_percentile(lat, 0.5)
    out["job_latency_p90_s"], q90 = tail_percentile(lat, 0.9)
    out["peak_rss_mb"] = peak_rss_kb / 1024.0
    return out, {"p50": q50, "p90": q90, "samples": len(lat)}


def _cache_ratio(rounds, shard):
    hits = sum(r[shard]["hits"] for r in rounds)
    misses = sum(r[shard]["misses"] for r in rounds)
    return ratio(hits, hits + misses)


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _weighted(probes, share, weight):
    """Mean of each probe's measured share, weighted by the run time
    the share is of."""
    return ratio(sum(p[share] * p[weight] for p in probes),
                 sum(p[weight] for p in probes))


def _as_submitted_off(p):
    """The run phase without the telemetry stream (as submitted when
    the job does not stream)."""
    return p["run_ns_stream_off"] if p["stream_bytes"] else p["run_ns"]


def per_layer(rounds, jobs, artifacts, monos, probes):
    """Every per-layer metric, aggregated over the workload."""
    m = {}
    waits = [j["queue_wait_ns"] / 1e6 for j in jobs
             if j.get("terminal") == "result"]
    m["svc.queue_wait_ms_p50"] = tail_percentile(waits, 0.5)[0]
    m["svc.cache.elab_hit_ratio"] = _cache_ratio(rounds, "elab")
    m["svc.cache.verify_hit_ratio"] = _cache_ratio(rounds, "verify")
    m["svc.cache.program_hit_ratio"] = _cache_ratio(rounds, "program")
    m["svc.cache.builds_per_artifact"] = ratio(
        sum(r["elab"]["misses"] for r in rounds),
        sum(r["distinct_artifacts"] for r in rounds))

    m["svc.trace_hash_share"] = _weighted(probes, "hash_monitor_share",
                                          "run_ns_hash_monitor")

    m["ripper.partition_ms"] = _mean(a["partition_ms"] for a in artifacts)
    m["verify.verify_plan_ms"] = _mean(
        a["verify_plan_ms"] for a in artifacts)
    m["analyze.batch_annotate_ms"] = _mean(
        a["batch_annotate_ms"] for a in artifacts)
    m["rtlsim.init_ms_cold"] = _mean(a["init_ms_cold"] for a in artifacts)
    m["rtlsim.init_ms_warm"] = _mean(a["init_ms_warm"] for a in artifacts)

    evals = sum(p["eval_calls"] for p in probes)
    host_cycles = sum(p["host_cycles"] for p in probes)
    cycles = sum(p["target_cycles"] for p in probes)
    run_ns = sum(p["run_ns"] for p in probes)
    m["rtlsim.eval_calls"] = evals
    m["rtlsim.nodes_evaluated_per_eval"] = ratio(
        sum(p["nodes_evaluated"] for p in probes), evals)
    mono_rate = {mo["target"]: mo["cycles_per_s"] for mo in monos}
    mono_s = sum(ratio(p["target_cycles"], mono_rate.get(p["target"], 0))
                 for p in probes)
    mono_cycles_per_s = ratio(cycles, mono_s)
    m["rtlsim.mono_cycles_per_s"] = mono_cycles_per_s

    m["platform.host_cycles"] = host_cycles
    m["platform.idle_tick_share"] = 1.0 - ratio(evals, host_cycles) \
        if host_cycles else 0.0
    m["platform.wall_ns_per_host_cycle"] = ratio(run_ns, host_cycles)
    m["platform.partition_overhead_x"] = ratio(
        mono_cycles_per_s, ratio(cycles, run_ns / 1e9))

    m["libdn.fires"] = sum(p["fires"] for p in probes)
    m["libdn.advances"] = sum(p["advances"] for p in probes)
    m["libdn.wait_share"] = ratio(
        sum(p["wait_ns"] for p in probes),
        sum(p["host_time_ns"] * p["partitions"] for p in probes))

    retransmits = sum(p["retransmits"] for p in probes)
    m["transport.retransmits"] = retransmits
    m["transport.retransmits_per_ktoken"] = ratio(
        retransmits, sum(p["tokens_enqueued"] for p in probes) / 1e3)

    snaps = [p for p in probes if p["snapshots"]]
    m["recovery.snapshot_ms"] = ratio(
        sum(p["snapshot_wall_ms"] for p in snaps),
        sum(p["snapshots"] for p in snaps))
    m["recovery.snapshot_bytes"] = _mean(p["snapshot_bytes"] for p in snaps)

    streams = [p for p in probes if p["stream_bytes"]]
    m["obs.stream_bytes_per_kcycle"] = ratio(
        sum(p["stream_bytes"] for p in streams),
        sum(p["target_cycles"] for p in streams) / 1e3)
    m["obs.stream_overhead_share"] = _weighted(streams, "stream_share",
                                               "run_ns")

    m["trace.instrumented_run_x"] = ratio(
        sum(p["run_ns_instrumented"] for p in probes),
        sum(_as_submitted_off(p) for p in probes))
    return m


def per_target(monos, probes):
    """Per-target breakdown rows (not named metrics): partitioned vs
    monolithic rate and idle share."""
    mono_rate = {mo["target"]: mo["cycles_per_s"] for mo in monos}
    rows = {}
    for p in probes:
        r = rows.setdefault(p["target"], {"cycles": 0, "run_ns": 0.0,
                                          "evals": 0, "host": 0})
        r["cycles"] += p["target_cycles"]
        r["run_ns"] += p["run_ns"]
        r["evals"] += p["eval_calls"]
        r["host"] += p["host_cycles"]
    out = []
    for target, r in rows.items():
        part_rate = ratio(r["cycles"], r["run_ns"] / 1e9)
        out.append({
            "target": target,
            "partitioned_cycles_per_s": part_rate,
            "mono_cycles_per_s": mono_rate.get(target, 0.0),
            "partition_overhead_x": ratio(mono_rate.get(target, 0.0),
                                          part_rate),
            "idle_tick_share": 1.0 - ratio(r["evals"], r["host"])
            if r["host"] else 0.0,
        })
    return out

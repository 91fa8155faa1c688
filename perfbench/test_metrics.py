#!/usr/bin/env python3
"""Checks of the benchmark's own arithmetic on synthetic records.

    python3 perfbench/test_metrics.py
"""

import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import workloads  # noqa: E402

GOLDENS = {"t/exact/100": {"trace_hash": "0xaa", "final_sig": "0xbb"}}


def result_job(round_=0, trace="0xaa", sig="0xbb", ok=True,
               deadlocked=False, exit_code=0, cycles=100, run_ns=1e6,
               host_ns=2e5, setup=(1e5, 2e5, 3e5), latency_ns=2e6,
               queue_ns=0.0):
    return {
        "kind": "job", "round": round_, "group": 0, "terminal": "result",
        "exit_code": exit_code, "golden_key": "t/exact/100",
        "latency_ns": latency_ns, "queue_wait_ns": queue_ns,
        "line": {"type": "result", "ok": ok, "deadlocked": deadlocked,
                 "trace_hash": trace, "final_sig": sig, "cycles": cycles,
                 "run_ns": run_ns, "host_time_ns": host_ns,
                 "elaborate_ns": setup[0], "verify_ns": setup[1],
                 "init_ns": setup[2]},
    }


def shard(hits, misses):
    return {"hits": hits, "misses": misses, "insertions": misses}


def round_rec(round_, wall_ns, jobs, artifacts=1, elab=(0, 1),
              verify=(0, 1), program=(0, 1)):
    return {"kind": "round", "round": round_, "wall_ns": wall_ns,
            "jobs": jobs, "distinct_artifacts": artifacts,
            "elab": shard(*elab), "verify": shard(*verify),
            "program": shard(*program)}


def probe(**over):
    p = {"target": "t", "mode": "exact", "ok": True, "partitions": 2,
         "target_cycles": 1000, "host_time_ns": 1e6,
         "trace_hash": "0xaa", "final_sig": "0xbb",
         "monitor_trace_hash": "0xaa", "golden_key": "t/exact/100",
         "run_ns": 4e6, "run_ns_stream_off": 0.0,
         "run_ns_no_monitor": 3e6, "run_ns_hash_monitor": 4e6,
         "hash_monitor_share": 0.25, "stream_share": 0.0,
         "run_ns_instrumented": 5e6, "stream_bytes": 0,
         "eval_calls": 250, "nodes_evaluated": 1000,
         "host_cycles": 10000, "wait_ns": 5e5, "fires": 7,
         "advances": 5, "retransmits": 3, "tokens_enqueued": 2000,
         "snapshots": 0, "snapshot_bytes": 0, "snapshot_wall_ms": 0.0}
    p.update(over)
    return p


class PercentileRule(unittest.TestCase):
    def test_interpolates_linearly(self):
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(metrics.percentile([5], 0.9), 5)
        self.assertEqual(metrics.percentile([], 0.5), 0.0)

    def test_keeps_the_requested_quantile_with_enough_tail(self):
        # 100 samples: p90's lower rank is 89, leaving exactly 10.
        self.assertEqual(metrics.tail_quantile(100, 0.9), 0.9)
        value, used = metrics.tail_percentile(list(range(1, 101)), 0.9)
        self.assertEqual(used, 0.9)
        self.assertAlmostEqual(value, 90.1)

    def test_lowers_the_quantile_until_ten_samples_lie_beyond(self):
        for n in (11, 21, 40, 90):
            q = metrics.tail_quantile(n, 0.9)
            self.assertLess(q, 0.9)
            lower_rank = int(q * (n - 1) + 1e-9)
            self.assertEqual(n - 1 - lower_rank, 10)
        values = list(range(40))
        value, used = metrics.tail_percentile(values, 0.9)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(used, 29 / 39)

    def test_median_needs_ten_samples_beyond_it_too(self):
        self.assertEqual(metrics.tail_quantile(20, 0.5), 0.5)
        self.assertLess(metrics.tail_quantile(19, 0.5), 0.5)

    def test_too_few_samples_fall_back_to_the_minimum(self):
        self.assertEqual(metrics.tail_quantile(10, 0.5), 0.0)
        self.assertEqual(metrics.tail_percentile([3, 1, 2], 0.9), (1, 0.0))


class ErrorAccounting(unittest.TestCase):
    def test_every_failure_kind_counts(self):
        jobs = [
            result_job(),
            result_job(),
            dict(result_job(), terminal="error", line={"type": "error"}),
            dict(result_job(), terminal="missing", line=None),
            result_job(deadlocked=True, ok=False, exit_code=4),
            result_job(exit_code=3, ok=False),
        ]
        attempted, failed, reasons = metrics.account(8, jobs, GOLDENS)
        self.assertEqual(attempted, 8)
        self.assertEqual(failed, 6)
        self.assertEqual(reasons, {"error line": 1,
                                   "missing terminal line": 1,
                                   "deadlock": 1, "nonzero exit": 1,
                                   "never finished": 2})
        self.assertEqual(metrics.error_rate(attempted, failed), 0.75)

    def test_all_passing_is_zero(self):
        attempted, failed, reasons = metrics.account(
            3, [result_job() for _ in range(3)], GOLDENS)
        self.assertEqual((attempted, failed, reasons), (3, 0, {}))
        self.assertEqual(metrics.error_rate(attempted, failed), 0.0)

    def test_error_rate_of_nothing_is_zero(self):
        self.assertEqual(metrics.error_rate(0, 0), 0.0)


class GoldenMismatch(unittest.TestCase):
    def test_trace_hash_mismatch(self):
        self.assertEqual(
            metrics.job_failure(result_job(trace="0x1"), GOLDENS),
            "trace_hash mismatch")

    def test_final_sig_mismatch(self):
        self.assertEqual(
            metrics.job_failure(result_job(sig="0x1"), GOLDENS),
            "final_sig mismatch")

    def test_unknown_golden_fails(self):
        job = dict(result_job(), golden_key="t/fast/100")
        self.assertEqual(metrics.job_failure(job, GOLDENS), "no golden")

    def test_match_passes(self):
        self.assertIsNone(metrics.job_failure(result_job(), GOLDENS))

    def test_probe_checks_run_and_monitor_copy(self):
        self.assertIsNone(metrics.probe_failure(probe(), GOLDENS))
        self.assertEqual(
            metrics.probe_failure(probe(final_sig="0x0"), GOLDENS),
            "instrumented run mismatch")
        self.assertEqual(
            metrics.probe_failure(probe(monitor_trace_hash="0x0"),
                                  GOLDENS),
            "monitor copy mismatch")
        self.assertEqual(metrics.probe_failure(probe(ok=False), GOLDENS),
                         "probe run failed")


class EndToEnd(unittest.TestCase):
    def test_round_sums_then_divides(self):
        jobs = [result_job(cycles=100, run_ns=1e6, host_ns=1e5),
                result_job(cycles=300, run_ns=3e6, host_ns=3e5)]
        m = metrics.round_metrics(jobs)
        self.assertAlmostEqual(m["sim_cycles_per_s"], 400 / 4e-3)
        self.assertAlmostEqual(m["modeled_mhz"], 400 / 4e5 * 1e3)
        self.assertAlmostEqual(m["setup_s"], 2 * 6e5 / 1e9)

    def test_failed_jobs_do_not_count_toward_rates(self):
        bad = dict(result_job(), terminal="error")
        m = metrics.round_metrics([result_job(), bad])
        self.assertAlmostEqual(m["sim_cycles_per_s"], 100 / 1e-3)

    def test_medians_over_rounds_and_pooled_latency(self):
        jobs, rounds = [], []
        for r, run_ns in enumerate((1e6, 2e6, 4e6)):
            jobs += [result_job(round_=r, run_ns=run_ns,
                                latency_ns=(r + 1) * 1e9)
                     for _ in range(10)]
            rounds.append(round_rec(r, wall_ns=(r + 1) * 1e9, jobs=10))
        out, used = metrics.end_to_end(rounds, jobs, peak_rss_kb=2048)
        self.assertAlmostEqual(out["sim_cycles_per_s"], 100 / 2e-3)
        self.assertAlmostEqual(out["jobs_per_s"], 10 / 2.0)
        self.assertAlmostEqual(out["peak_rss_mb"], 2.0)
        self.assertEqual(used["p50"], 0.5)
        self.assertAlmostEqual(out["job_latency_p50_s"], 2.0)
        # 30 samples: p90 is lowered so ten samples stay beyond it.
        self.assertAlmostEqual(used["p90"], 19 / 29)
        self.assertAlmostEqual(out["job_latency_p90_s"], 2.0)

    def test_throughput_counts_completed_jobs_only(self):
        jobs = [result_job(), dict(result_job(), terminal="missing")]
        out, _ = metrics.end_to_end([round_rec(0, 1e9, jobs=2)], jobs, 0)
        self.assertAlmostEqual(out["jobs_per_s"], 1.0)


class PerLayer(unittest.TestCase):
    def layers(self, probes=None, rounds=None, jobs=None):
        artifacts = [{"partition_ms": 1.0, "verify_plan_ms": 2.0,
                      "batch_annotate_ms": 3.0, "init_ms_cold": 4.0,
                      "init_ms_warm": 1.0},
                     {"partition_ms": 3.0, "verify_plan_ms": 2.0,
                      "batch_annotate_ms": 1.0, "init_ms_cold": 2.0,
                      "init_ms_warm": 1.0}]
        monos = [{"target": "t", "cycles_per_s": 1e7}]
        return metrics.per_layer(rounds or [round_rec(0, 1e9, 1)],
                                 jobs or [result_job(queue_ns=2e6)],
                                 artifacts, monos,
                                 probes or [probe(), probe()])

    def test_ratios(self):
        m = self.layers()
        self.assertEqual(m["rtlsim.eval_calls"], 500)
        self.assertEqual(m["platform.host_cycles"], 20000)
        self.assertAlmostEqual(m["platform.idle_tick_share"], 0.975)
        self.assertAlmostEqual(m["rtlsim.nodes_evaluated_per_eval"], 4.0)
        self.assertAlmostEqual(m["platform.wall_ns_per_host_cycle"], 400)
        self.assertAlmostEqual(m["svc.trace_hash_share"], 0.25)
        self.assertAlmostEqual(m["libdn.wait_share"], 0.25)
        self.assertAlmostEqual(m["transport.retransmits_per_ktoken"], 1.5)
        self.assertAlmostEqual(m["trace.instrumented_run_x"], 1.25)
        # 2000 cycles at 1e7/s monolithic vs 2000 cycles in 8 ms.
        self.assertAlmostEqual(m["rtlsim.mono_cycles_per_s"], 1e7)
        self.assertAlmostEqual(m["platform.partition_overhead_x"],
                               1e7 / 2.5e5)
        self.assertAlmostEqual(m["ripper.partition_ms"], 2.0)
        self.assertAlmostEqual(m["rtlsim.init_ms_cold"], 3.0)
        self.assertAlmostEqual(m["svc.queue_wait_ms_p50"], 2.0)

    def test_cache_ratios_and_builds_per_artifact(self):
        rounds = [round_rec(0, 1e9, 10, artifacts=2, elab=(6, 4),
                            verify=(7, 3), program=(1, 1)),
                  round_rec(1, 1e9, 10, artifacts=2, elab=(8, 2),
                            verify=(9, 1), program=(3, 1))]
        m = self.layers(rounds=rounds)
        self.assertAlmostEqual(m["svc.cache.elab_hit_ratio"], 0.7)
        self.assertAlmostEqual(m["svc.cache.verify_hit_ratio"], 0.8)
        self.assertAlmostEqual(m["svc.cache.program_hit_ratio"], 4 / 6)
        self.assertAlmostEqual(m["svc.cache.builds_per_artifact"], 1.5)

    def test_stream_and_snapshot_shares(self):
        probes = [probe(stream_bytes=5000, run_ns=5e6,
                        run_ns_stream_off=4e6, stream_share=0.2,
                        snapshots=4,
                        snapshot_bytes=100, snapshot_wall_ms=2.0),
                  probe()]
        m = self.layers(probes=probes)
        self.assertAlmostEqual(m["obs.stream_bytes_per_kcycle"], 5000)
        self.assertAlmostEqual(m["obs.stream_overhead_share"], 0.2)
        self.assertAlmostEqual(m["recovery.snapshot_ms"], 0.5)
        self.assertAlmostEqual(m["recovery.snapshot_bytes"], 100)
        # The instrumented run is compared with the stream-off run.
        self.assertAlmostEqual(m["trace.instrumented_run_x"], 10 / 8)

    def test_shares_are_weighted_by_run_time(self):
        probes = [probe(hash_monitor_share=0.5, run_ns_hash_monitor=1e6),
                  probe(hash_monitor_share=0.1, run_ns_hash_monitor=3e6)]
        m = self.layers(probes=probes)
        self.assertAlmostEqual(m["svc.trace_hash_share"], 0.2)

    def test_every_named_metric_is_reported(self):
        m = self.layers()
        self.assertEqual(set(m), {name for name, _ in metrics.PER_LAYER})


class Plans(unittest.TestCase):
    def test_same_seed_same_plan(self):
        for w in workloads.WORKLOADS:
            a = workloads.make_plan(w, 7, 10, 4, "work")
            self.assertEqual(a, workloads.make_plan(w, 7, 10, 4, "work"))
            self.assertNotEqual(a, workloads.make_plan(w, 8, 10, 4, "work"))

    def test_svc_mix_is_the_same_for_every_seed(self):
        def mix(seed):
            plan = workloads.make_plan("svc-burst", seed, 10, 4, "w")
            return Counter((g["copies"], tuple(sorted(g["spec"].items())))
                           for g in plan["groups"])
        self.assertEqual(mix(1), mix(2))

    def test_svc_bursts_come_first_for_each_artifact(self):
        plan = workloads.make_plan("svc-burst", 3, 10, 4, "w")
        seen = set()
        for g in plan["groups"]:
            artifact = (g["spec"]["target"], g["spec"]["mode"])
            if artifact not in seen:
                self.assertEqual(g["copies"], plan["workers"])
                seen.add(artifact)
        self.assertEqual(len(seen), 2 * len(workloads.TARGETS))

    def test_fault_seed_follows_the_workload_seed(self):
        a = workloads.make_plan("cosim-d32-faults", 1, 10, 4, "w")
        b = workloads.make_plan("cosim-d32-faults", 2, 10, 4, "w")
        self.assertNotEqual([g["spec"]["seed"] for g in a["groups"]],
                            [g["spec"]["seed"] for g in b["groups"]])

    def test_rounds_follow_seconds_not_the_clock(self):
        self.assertEqual(workloads.rounds_for("cosim-d1", 0),
                         workloads.MIN_ROUNDS)
        self.assertEqual(
            len(workloads.make_plan("svc-burst", 1, 10, 4, "w")["rounds"]),
            workloads.rounds_for("svc-burst", 10))


if __name__ == "__main__":
    unittest.main()

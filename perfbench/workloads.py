"""Seeded job plans for the three workloads.

A plan is what the compiled driver runs: a list of job groups (each
one JobSpec in the ``fireaxe.job.v1`` wire form, submitted ``copies``
times back to back) and, per round, the order to submit them in.
Every round starts with empty caches. The seed is the only source of
variation: the same seed gives the same plan.
"""

TARGETS = ["fig2", "fig3", "bus-soc", "ring-noc", "big-core", "sha3",
           "gemmini", "boot"]

# Target cycles per job.
COSIM_CYCLES = 10000
SVC_CYCLES = 500

# Depth-32 workload: fault rate per token and autosnapshot interval.
FAULT_RATE = 1e-3
SNAPSHOT_EVERY = 2500

# svc-burst: how often each target x mode x engine job runs per
# round, besides the bursts.
SVC_REPEATS = 3

# Rounds per run per second of --seconds, measured on a 4-core host
# so that one run measures about --seconds. The work of a run is
# fixed by --seconds alone, never by the clock, so percentiles pooled
# over rounds always see the same sample layout.
ROUNDS_PER_SECOND = {
    "cosim-d1": 0.5,
    "cosim-d32-faults": 0.8,
    "svc-burst": 1.5,
}
MIN_ROUNDS = 3

WORKLOADS = list(ROUNDS_PER_SECOND)

_MASK = (1 << 64) - 1


class SplitMix64:
    """Small, version-independent PRNG (Python's own generator may
    change between releases; plans must not)."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS, round(seconds * ROUNDS_PER_SECOND[workload]))


def _spec(target, cycles, mode="exact", engine="compiled", depth=1):
    return {"target": target, "mode": mode, "backend": "sequential",
            "workers": 0, "engine": engine, "batch_depth": depth,
            "cycles": cycles}


def _cosim_groups(workload, seed, workdir):
    rng = SplitMix64(seed ^ 0xC051)
    groups = []
    for target in TARGETS:
        if workload == "cosim-d1":
            spec = _spec(target, COSIM_CYCLES)
        else:
            spec = _spec(target, COSIM_CYCLES, depth=32)
            jobdir = f"{workdir}/{target}"
            spec.update({
                "fault_rate": FAULT_RATE,
                "seed": "0x%x" % rng.next(),
                "snapshot_every": SNAPSHOT_EVERY,
                "snapshot_dir": f"{jobdir}/snap",
                "stream_path": f"{jobdir}/stream.jsonl",
                "sample_every": 64,
                "stream_every": 0,
            })
        groups.append({"copies": 1, "spec": spec})
    return groups


def _svc_groups(seed, workers):
    """A seeded order over targets x {exact, fast} x {interpret,
    compiled}, each combination SVC_REPEATS times. Just before the
    first job of each new elaboration artifact (target, mode) comes a
    burst of `workers` identical compiled-engine copies, so the burst
    misses the cache concurrently and later repeats hit it. The seed
    picks the order only; the mix itself is the same for every seed,
    so seeds compare like with like."""
    rng = SplitMix64(seed ^ 0x5BC)
    combos = [(t, m, e) for t in TARGETS for m in ("exact", "fast")
              for e in ("interpret", "compiled")]
    seen = set()
    groups = []
    for target, mode, engine in rng.shuffled(combos * SVC_REPEATS):
        if (target, mode) not in seen:
            seen.add((target, mode))
            groups.append({"copies": workers,
                           "spec": _spec(target, SVC_CYCLES, mode)})
        groups.append({"copies": 1,
                       "spec": _spec(target, SVC_CYCLES, mode, engine)})
    return groups


def make_plan(workload, seed, seconds, nproc, workdir):
    rounds = rounds_for(workload, seconds)
    if workload == "svc-burst":
        workers = max(1, nproc - 1)
        groups = _svc_groups(seed, workers)
        order = list(range(len(groups)))
        return {"workload": workload, "runner": "service",
                "workers": workers, "groups": groups,
                "rounds": [order] * rounds}
    groups = _cosim_groups(workload, seed, workdir)
    rng = SplitMix64(seed ^ 0x0DE5)
    return {"workload": workload, "runner": "serial", "workers": 1,
            "groups": groups,
            "rounds": [rng.shuffled(range(len(groups)))
                       for _ in range(rounds)]}


def golden_plan():
    """Every (target, mode, cycles) any workload runs; the driver's
    golden mode runs each once in the reference configuration."""
    groups = []
    for target in TARGETS:
        groups.append({"copies": 1, "spec": _spec(target, COSIM_CYCLES)})
        for mode in ("exact", "fast"):
            groups.append({"copies": 1,
                           "spec": _spec(target, SVC_CYCLES, mode)})
    return {"workload": "golden", "runner": "serial", "workers": 1,
            "groups": groups, "rounds": [[0]]}


def golden_key(target, mode, cycles):
    return f"{target}/{mode}/{cycles}"

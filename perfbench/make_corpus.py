"""Write ``corpus/<workload>.json.gz``: queries, their cost groups and expected answers.

    python3 perfbench/make_corpus.py --workload suite

Run from the root of a checkout, on an idle machine, once per workload.
bigrade's caches are emptied before every query, as in a run, so costs are
per query and every rank is computed under the oracle.

1. Generate queries with the workload's generator at ``GENERATOR_SEED`` and
   time each one untraced, in order, until one run's list (step 3) is
   expected to take ``--target`` seconds; then time them all again
   ``TIMING_REPEATS - 1`` times, each pass in another order.  A query's cost
   is the median of its latencies normalized to the reference host speed
   (``hostspeed.py``), so the groups hold queries of truly near-equal cost.
2. Run every query again with the tracer's rank oracle on, and write an
   expected answer only when every rank agreed with the oracle and every
   answer check passed.  charp answers are computed in characteristic 0 and
   only the ``char`` field is changed: over these ideals the answers must not
   depend on the characteristic.
3. Sort by cost and cut into groups of ``GROUP`` queries; the costliest
   groups keep only their cheapest query, so every run contains it and no
   rare query takes over a run.  ``design_s`` is the expected time of one
   run's list on this machine.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import algebra  # noqa: E402
import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

GENERATOR_SEED = 20240811
GROUP = 4
TIMING_REPEATS = 3
FIXED_SHARE = 0.05  # share of a run's groups, costliest first, that hold one query


def grouping(costs):
    """Cost groups of query indices, and the expected time of one run's list.

    The costliest groups keep only their cheapest query: every run contains
    it, and no single rare query can take over a run.
    """
    order = sorted(range(len(costs)), key=lambda i: costs[i])
    groups = [order[g:g + GROUP] for g in range(0, len(order), GROUP)]
    fixed = max(3, round(FIXED_SHARE * len(groups)))
    groups = groups[:-fixed] + [g[:1] for g in groups[-fixed:]]
    return groups, sum(sum(costs[i] for i in g) / len(g) for g in groups)


def timed(workload, q, path, speed):
    """(latency without the sampler's time, (start, end)) of one cold query."""
    workloads.clear_caches()
    stolen = speed.stolen
    t0 = time.perf_counter()
    try:
        workloads.run_query(workload, q, path)
    except Exception:  # the expected-answer pass reports it
        pass
    t1 = time.perf_counter()
    return t1 - t0 - (speed.stolen - stolen), (t0, t1)


def timing_pass(workload, queries, target, workdir):
    """Normalized cost of each query kept, the median over TIMING_REPEATS timings,
    and the median time of the host-speed unit meanwhile."""
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        runs, paths = [], []
        for q in queries:
            paths.append(write_ideal(q, workdir))
            runs.append([timed(workload, q, paths[-1], speed)])
            if len(runs) % GROUP == 0 and grouping(
                    [dt / speed.slowdown(*w) for (dt, w), in runs])[1] >= target:
                break
        else:
            raise SystemExit("generated queries ran out before the time budget")
        order = list(range(len(runs)))
        for r in range(1, TIMING_REPEATS):
            random.Random(f"timing:{r}").shuffle(order)
            for i in order:
                runs[i].append(timed(workload, queries[i], paths[i], speed))
    finally:
        speed.stop()
    costs = [statistics.median(dt / speed.slowdown(*w) for dt, w in r) for r in runs]
    return costs, statistics.median(speed.durations)


def write_ideal(q, workdir):
    path = os.path.join(workdir, f"{q['id']}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra.ideal_text(q["m"], q["n"], q["gens"]))
    return path


def with_char(out: str, p: int) -> str:
    doc = json.loads(out)
    if "char" not in doc:
        return out
    doc["char"] = p
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def expected_answer(workload, q, workdir, tracer):
    """The checked expected answer of one query; raises if anything disagrees."""
    path = write_ideal(q, workdir)
    workloads.clear_caches()
    before = tracer.counts["rank_mismatch"]
    if workload == "suite":
        answer = workloads.run_query(workload, q, path)
        exp = {"violations": []}
    elif workload == "charp":
        outs = workloads.run_query(workload, q, path, char=0)
        exp = {"outputs": {
            workloads.key(argv): with_char(out, q["p"])
            for argv, (_, out) in zip(workloads.commands(workload, q, path), outs)
        }}
        if any(rc for rc, _ in outs):
            raise SystemExit(f"{q['id']}: nonzero exit in characteristic 0")
    else:
        answer = workloads.run_query(workload, q, path)
        exp = {"outputs": {
            workloads.key(argv): out
            for argv, (_, out) in zip(workloads.commands(workload, q, path), answer)
        }}
        if workload == "exponents":
            base = dict(q, gens=q["base"], id=q["id"] + "-base")
            exp["base_fields"] = workloads.invariant_fields(
                base, workloads.run_query(workload, base, write_ideal(base, workdir)))
    if tracer.counts["rank_mismatch"] != before:
        raise SystemExit(f"{q['id']}: a rank disagrees with the oracle")
    if workload == "charp":
        return exp  # checked against the program's answer at p by every run
    problems = workloads.check_answer(workload, q, answer, exp)
    if problems:
        raise SystemExit(f"{q['id']}: {problems}")
    return exp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--target", type=float, default=21.0, help="seconds of one run's list")
    args = ap.parse_args()

    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_tmp", f"corpus-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    queries = workloads.generate(args.workload, GENERATOR_SEED, 20000)
    costs, unit_s = timing_pass(args.workload, queries, args.target, workdir)
    queries = queries[:len(costs)]

    tracer = Tracer(oracle=True)
    tracer.install()
    try:
        expected = [expected_answer(args.workload, q, workdir, tracer) for q in queries]
    finally:
        tracer.uninstall()

    groups, design_s = grouping(costs)

    def entry(i):
        q = queries[i]
        return {"index": i, "cost_s": round(costs[i], 6),
                "ideal": algebra.ideal_text(q["m"], q["n"], q["gens"]),
                "expected": expected[i]}

    header = {
        "workload": args.workload,
        "generator_seed": GENERATOR_SEED,
        "count": len(queries),
        "groups": len(groups),
        "design_s": design_s,
        "reference_environment": bench.environment(),
    }
    os.makedirs(os.path.join(HERE, "corpus"), exist_ok=True)
    with gzip.open(bench.corpus_path(args.workload), "wt", encoding="utf-8", compresslevel=9) as fh:
        for record in [header] + [[entry(i) for i in g] for g in groups]:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"{args.workload}: {len(queries)} queries, {len(groups)} groups, "
          f"design {header['design_s']:.1f} s, rank oracle calls checked "
          f"{sum(tracer.shapes.values())}, host-speed unit median {unit_s * 1e6:.0f} us")
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()

"""bigrade benchmark: one closed-loop client, one process, one query at a time.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; bigrade is imported from ``src/``.

A run's query list comes from the workload's corpus (``corpus/<workload>.json.gz``,
written by ``make_corpus.py``).  The corpus holds queries made by the seeded
generator in ``workloads.py``, their expected answers, and their cost on the
reference machine, grouped by cost: each group holds queries of near-equal
cost, and the seed picks one query per group and shuffles the order.  Every
seed therefore runs different ideals with the same cost profile, which keeps
the heavy-tailed per-query cost from making runs incomparable.  The costliest
groups hold only their cheapest query: every run has the same heavy queries,
and no rare multi-second query takes a run over.
The list is cut by systematic sampling over cost rank when ``--seconds`` is
shorter than the corpus' reference run time; a run makes one pass over it,
so no query is repeated and none is warmed up.  bigrade's module caches are
emptied before every query, outside the timed region: each query pays for a
cold start as a CLI call does, and its cost does not depend on the queries
the seed happened to put before it.

The host this runs on is shared, and its speed swings by a third within
seconds.  An untraced run therefore samples the host's speed while it
measures (``hostspeed.py``) and reports every latency normalized to the
reference speed: raw latency times the reference time of a fixed
calibration unit over the unit's time around the query.  The report line
also carries the raw figures.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a third of
the list untraced in a fresh process, then traced here with the rank oracle
on, and prints the per-layer metrics.  Every answer is checked in both modes.  The
last line of stdout is the result; the line before it is a report with the
environment, every metric and the failures.
"""

from __future__ import annotations

import argparse
import gzip
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import algebra  # noqa: E402  (these live next to this file)
import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
TRACED_SHARE = 3  # a traced run times every third group, untraced and then traced
# the largest charp prime overflows rank_mod_p's int64 arithmetic (a known
# defect, kept visible): its queries are the only ones a correct run may fail
KNOWN_FAILING_PRIME = 4294967311


def corpus_path(workload: str) -> str:
    return os.path.join(HERE, "corpus", f"{workload}.json.gz")


def read_corpus(workload: str):
    """Yield the corpus header, then its cost groups one at a time.

    Groups are streamed so that the run never holds every expected answer
    and the peak RSS stays the program's own.
    """
    with gzip.open(corpus_path(workload), "rt", encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def select(groups, seed: int, fraction: float) -> list:
    """The run's entries: one per cost group, seeded, then shuffled.

    ``fraction`` < 1 keeps every group whose cost rank crosses a multiple of
    1/fraction, so a shorter run keeps the cost profile of the full one.
    """
    rng = random.Random(f"select:{seed}")
    picks = [
        pick for g, pick in enumerate(rng.choice(group) for group in groups)
        if fraction >= 1 or int((g + 1) * fraction) > int(g * fraction)
    ]
    rng.shuffle(picks)
    return picks


def setup(workload: str, seed: int, fraction: float, workdir: str) -> list:
    """Regenerate the corpus' queries, pick the run's list and write the ideal files."""
    groups = read_corpus(workload)
    header = next(groups)
    queries = workloads.generate(workload, header["generator_seed"], header["count"])
    os.makedirs(workdir, exist_ok=True)
    run = []
    for e in select(groups, seed, fraction):
        q = queries[e["index"]]
        text = algebra.ideal_text(q["m"], q["n"], q["gens"])
        if text != e["ideal"]:
            raise SystemExit(f"generator output differs from the corpus at {q['id']}")
        path = os.path.join(workdir, f"{q['id']}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        run.append((q, path, e))
    return run


def execute(workload: str, q: dict, path: str, entry: dict, tracer=None, speed=None):
    """Run and check one query; returns (latency, (start, end), outcome, problems).

    With ``speed`` (a started ``HostSpeed``) the time its sampler took is
    left out of the latency.  outcome is "ok", "error" (an exception or a
    nonzero exit: the program reported the failure) or "wrong" (it
    answered, and the answer is wrong).
    """
    error = None
    if tracer is not None:
        tracer.begin_query(q["id"])
    stolen = speed.stolen if speed is not None else 0.0
    t0 = time.perf_counter()
    try:
        answer = workloads.run_query(workload, q, path)
    except Exception as exc:  # a failed query is counted, never fatal
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer is not None:
        latency = tracer.end_query()
    else:
        latency = t1 - t0 - ((speed.stolen - stolen) if speed is not None else 0.0)
    if error is not None:
        return latency, (t0, t1), "error", [error]
    problems = workloads.check_answer(workload, q, answer, entry["expected"])
    if not problems:
        return latency, (t0, t1), "ok", []
    outcome = "wrong" if any(kind == "wrong" for kind, _ in problems) else "error"
    return latency, (t0, t1), outcome, [msg for _, msg in problems]


def run_pass(workload, run, tracer=None, speed=None):
    """Run every query once; returns (latencies, (start, end) of each, failures)."""
    lat, windows, failures = [], [], []
    for q, path, entry in run:
        workloads.clear_caches()
        dt, window, outcome, problems = execute(workload, q, path, entry, tracer, speed)
        lat.append(dt)
        windows.append(window)
        if outcome != "ok":
            failures.append({"id": q["id"], "p": q.get("p"), "outcome": outcome,
                             "problems": problems[:3]})
    return lat, windows, failures


def measure(workload, run):
    """One untraced pass under the host-speed sampler.

    Returns (normalized latencies, raw latencies, slowdowns, failures).
    """
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        raw, windows, failures = run_pass(workload, run, speed=speed)
    finally:
        speed.stop()
    slow = [speed.slowdown(a, b) for a, b in windows]
    return [dt / s for dt, s in zip(raw, slow)], raw, slow, failures


def is_correct(workload, failures, flagged=None) -> bool:
    """Every failure is a charp query at the prime whose ranks overflow int64.

    Those failures are counted, never hidden.  In a traced run each of them
    must also hold a rank that the oracle flagged (``flagged``: query ids).
    """
    return all(
        workload == "charp" and f["p"] == KNOWN_FAILING_PRIME
        and (flagged is None or f["id"] in flagged)
        for f in failures
    )


def environment() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "numpy_imported": "numpy" in sys.modules,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "BIGRADE_THREADS": os.environ.get("BIGRADE_THREADS"),
        "BIGRADE_NO_NUMBA": os.environ.get("BIGRADE_NO_NUMBA"),
    }


def time_setup(args) -> list:
    """Wall time of fresh interpreters that import bigrade and do the run's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def untraced_wall(args, fraction) -> float:
    """Sum of query latencies of the same list in a fresh untraced process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--fraction", repr(fraction), "--no-setup-timing"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-2])["report"]["wall_s"]


def quantile(values, q) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(lat, setup_times) -> dict:
    return {
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, wall, untraced, failures) -> dict:
    st = tracer.stats
    c = tracer.counts

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return st.get(name, [0, 0.0, 0.0])[2]

    def frac(num, den):
        return num / den if den else 0.0

    m = {
        "kernels.rank_calls": (calls("kernels.rank_char0"), "count"),
        "kernels.rank_self_s": (own("kernels.rank_char0"), "s"),
        "kernels.rank_entries": (c["rank_entries"], "count"),
        "kernels.rank_mod_p_calls": (calls("kernels.rank_mod_p"), "count"),
        "kernels.rank_mod_p_self_s": (own("kernels.rank_mod_p"), "s"),
        "kernels.rank_mod_p_entries": (c["rank_mod_p_entries"], "count"),
        "kernels.rank_mismatch": (c["rank_mismatch"], "count"),
        "homology.koszul_degrees": (calls("homology.koszul_dims_at"), "count"),
        "homology.koszul_self_s": (own("homology.koszul_dims_at"), "s"),
        "homology.koszul_nonzero_frac": (frac(c["koszul_nonzero"], calls("homology.koszul_dims_at")), "ratio"),
        "homology.depth_calls": (calls("homology.depth_module"), "count"),
        "homology.scan_calls": (calls("homology.betti_and_projdim"), "count"),
        "homology.depth_cache_hit_frac": (frac(c["depth_hits"], calls("homology.depth_module")), "ratio"),
        "homology.cech_calls": (calls("homology.cech_piece_dim"), "count"),
        "homology.cech_self_s": (own("homology.cech_piece_dim"), "s"),
        "homology.cech_nonzero_frac": (frac(c["cech_nonzero"], calls("homology.cech_piece_dim")), "ratio"),
        "homology.ass_sub_calls": (calls("homology.ass_subquotient"), "count"),
        "homology.ass_sub_self_s": (own("homology.ass_subquotient"), "s"),
        "rings.mingens_calls": (calls("rings.minimal_generators"), "count"),
        "rings.mingens_self_s": (own("rings.minimal_generators"), "s"),
        "rings.intersect_calls": (calls("rings.intersect"), "count"),
        "rings.decomp_calls": (calls("rings.irreducible_decomposition"), "count"),
        "rings.decomp_incl_s": (st.get("rings.irreducible_decomposition", [0, 0.0])[1], "s"),
        "rings.decomp_distinct_frac": (frac(len(tracer.decomp_ideals), calls("rings.irreducible_decomposition")), "ratio"),
        "rings.ringspec_calls": (calls("rings.RingSpec.__post_init__"), "count"),
        "rings.ringspec_self_s": (own("rings.RingSpec.__post_init__"), "s"),
        "invariants.fibers_calls": (calls("invariants.fibers"), "count"),
        "invariants.fibers_self_s": (own("invariants.fibers"), "s"),
        "invariants.fiber_slices": (c["fiber_slices"], "count"),
        "invariants.fiber_classes": (c["fiber_classes"], "count"),
    }
    for layer, s in tracer.layer_self.items():
        m[f"{layer}.self_s"] = (s, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace_overhead_frac"] = (wall / untraced - 1, "ratio")
    m["trace.failed_without_mismatch"] = (
        sum(1 for f in failures if f["id"] not in tracer.mismatch_queries), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: used by the run itself for its child processes
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--no-setup-timing", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--fraction", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bigrade", "__init__.py")):
        print(f"no bigrade source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bigrade

    if not os.path.abspath(bigrade.__file__).startswith(SRC + os.sep):
        print(f"bigrade imported from {bigrade.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def _run(args, workdir) -> int:
    design_s = next(read_corpus(args.workload))["design_s"]
    fraction = args.fraction
    if fraction is None:
        fraction = min(1.0, args.seconds / design_s)
        if args.trace:
            fraction /= TRACED_SHARE
    if args.setup_only:
        setup(args.workload, args.seed, fraction, workdir)
        return 0

    setup_times = [] if args.no_setup_timing or args.trace else time_setup(args)
    run = setup(args.workload, args.seed, fraction, workdir)

    tracer = None
    if args.trace:
        from tracer import Tracer

        untraced = untraced_wall(args, fraction)
        tracer = Tracer(oracle=True)
        tracer.install()
        try:
            lat, _, failures = run_pass(args.workload, run, tracer)
        finally:
            tracer.uninstall()
        raw = lat
        metrics = per_layer(tracer, sum(lat), untraced, failures)
    else:
        lat, raw, slow, failures = measure(args.workload, run)
        metrics = end_to_end(lat, setup_times) if setup_times else {}

    attempted = len(lat)
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "client": "closed loop, 1 client, 1 process",
        "environment": environment(),
        "attempted": attempted,
        "failed": len(failures),
        "wall_s": sum(raw),
        "setup_runs_s": setup_times,
        # reported here but not bounded: failed_frac is 0 on every workload
        # but charp (the result carries it as attempted/failed), and p90
        # rests on the 9 to 16 costliest queries of a run
        "metrics": dict(
            result,
            failed_frac={"value": len(failures) / attempted, "unit": "ratio"},
            query_p90_ms={"value": quantile(lat, 90) * 1e3, "unit": "ms"},
        ),
        "failures": failures,
    }
    if not args.trace:
        report["host"] = {
            "median_slowdown": statistics.median(slow),
            "raw_queries_per_s": len(raw) / sum(raw),
            "raw_query_p50_ms": statistics.median(raw) * 1e3,
        }
    if tracer is not None:
        report["rank_shapes"] = sorted(
            [{"mod_p": mp, "rows": r, "cols": k, "calls": n}
             for (mp, r, k), n in tracer.shapes.items()],
            key=lambda d: -d["calls"],
        )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": is_correct(args.workload, failures,
                              tracer.mismatch_queries if tracer is not None else None),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

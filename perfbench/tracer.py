"""Span tracer installed around bigrade's public functions from outside the package.

``Tracer.install`` rebinds every module attribute that holds a traced
function (``invariants.depth_module`` is bound by ``from .homology import
depth_module``, so patching only ``homology`` would miss those calls) and
``RingSpec.__post_init__``; ``uninstall`` puts the originals back.

Functions marked as spans keep one record each (query id, name, start, end,
parent, self time); hot leaves are only aggregated, as count, total and self
time under their parent span.  Self time is duration minus the time covered by
child calls.  With ``oracle=True`` every rank result is also recomputed by
``algebra``; the clock is paused meanwhile, so no span includes oracle time.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

import algebra
from workloads import bigrade_modules

# (module, function, layer, kept as a span record)
TRACED = (
    ("kernels", "rank_char0", "kernels", False),
    ("kernels", "rank_mod_p", "kernels", False),
    ("homology", "koszul_dims_at", "homology", False),
    ("homology", "betti_and_projdim", "homology", True),
    ("homology", "depth_module", "homology", True),
    ("homology", "dim_module", "homology", False),
    ("homology", "cech_piece_dim", "homology", False),
    ("homology", "ass_subquotient", "homology", True),
    ("homology", "restrict_ideal", "homology", False),
    ("rings", "minimal_generators", "rings", False),
    ("rings", "intersect", "rings", False),
    ("rings", "colon", "rings", False),
    ("rings", "colon_ideal", "rings", False),
    ("rings", "irreducible_decomposition", "rings", True),
    ("rings", "associated_primes", "rings", False),
    ("rings", "primary_decomposition", "rings", True),
    ("rings", "dim_quotient", "rings", False),
    ("invariants", "fibers", "invariants", True),
    ("invariants", "grade", "invariants", True),
    ("invariants", "cd", "invariants", True),
    ("invariants", "mgrade", "invariants", True),
    ("invariants", "analyze", "invariants", True),
    ("filtration", "dimension_filtration", "filtration", True),
    ("filtration", "ass_quotients", "filtration", True),
    ("filtration", "sequentially_cm", "filtration", True),
    ("filtration", "mgrade_constancy", "filtration", True),
    ("local_cohomology", "lc_report", "local_cohomology", True),
    ("local_cohomology", "generalized_cm", "local_cohomology", True),
    ("local_cohomology", "growth_scan", "local_cohomology", True),
    ("local_cohomology", "corollary_check", "local_cohomology", True),
    ("io_formats", "parse_ideal_file", "cli", True),
    ("cli", "main", "cli", True),
    ("suite", "check_instance", "suite", True),
)
RINGSPEC = "rings.RingSpec.__post_init__"
LAYERS = ("bench", "cli", "suite", "local_cohomology", "filtration",
          "invariants", "homology", "rings", "kernels")


class Tracer:
    def __init__(self, oracle: bool = False):
        self.oracle = oracle
        self.spans = []  # [qid, name, start, end, parent index, self, {leaf: [n, total, self]}]
        self.stats = {}  # name -> [calls, total, self]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts = Counter()
        self.shapes = Counter()
        self.decomp_ideals = set()
        self.mismatch_queries = set()
        self._stack = []  # open frames: [name, start, child time, own span, nearest span]
        self._paused = 0.0
        self._oracle_memo = {}
        self._saved = []
        self.qid = None
        self._root = None

    def now(self) -> float:
        return perf_counter() - self._paused

    # -- frames -------------------------------------------------------------

    def _enter(self, name, is_span):
        start = self.now()
        parent = self._stack[-1][4] if self._stack else None
        idx = None
        if is_span:
            idx = len(self.spans)
            self.spans.append([self.qid, name, start, None, parent, 0.0, {}])
        self._stack.append([name, start, 0.0, idx, parent if idx is None else idx])

    def _exit(self, layer):
        end = self.now()
        name, start, child, idx, span = self._stack.pop()
        dur = end - start
        own = dur - child
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += own
        self.layer_self[layer] += own
        if idx is not None:
            rec = self.spans[idx]
            rec[3] = end
            rec[5] = own
        elif span is not None:
            leaf = self.spans[span][6].setdefault(name, [0, 0.0, 0.0])
            leaf[0] += 1
            leaf[1] += dur
            leaf[2] += own

    def begin_query(self, qid):
        self.qid = qid
        self._root = len(self.spans)
        self._enter("bench.query", True)

    def end_query(self) -> float:
        """Close the query's root span; returns its duration."""
        self._exit("bench")
        rec = self.spans[self._root]
        self.qid = None
        return rec[3] - rec[2]

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, module, fname, layer, is_span):
        orig = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
        tracer = self
        extra = _EXTRA.get(name)

        def traced(*args, **kwargs):
            scans = tracer.counts["scan_calls"]
            tracer._enter(name, is_span)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit(layer)
            if extra is not None:
                extra(tracer, args, result, scans)
            return result

        traced.__wrapped__ = orig
        traced.__name__ = orig.__name__
        traced.__doc__ = orig.__doc__
        return orig, traced

    def install(self):
        """Rebind every binding of each traced function in every bigrade module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, *_ in TRACED:
            importlib.import_module(f"bigrade.{modname}")
        mods = bigrade_modules()
        for modname, fname, layer, is_span in TRACED:
            orig, traced = self._wrap(mods[f"bigrade.{modname}"], fname, layer, is_span)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, traced)
        ring_cls = mods["bigrade.rings"].RingSpec
        post_init = ring_cls.__post_init__
        tracer = self

        def traced_post_init(spec):
            tracer._enter(RINGSPEC, False)
            try:
                post_init(spec)
            finally:
                tracer._exit("rings")

        self._saved.append((ring_cls, "__post_init__", post_init))
        ring_cls.__post_init__ = traced_post_init

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []

    # -- rank oracle --------------------------------------------------------

    def rank_seen(self, args, result, p):
        matrix = args[0]
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        self.shapes[(p != 0, rows, cols)] += 1
        self.counts["rank_entries" if p == 0 else "rank_mod_p_entries"] += rows * cols
        if not self.oracle:
            return
        t = perf_counter()
        memo_key = (p, tuple(tuple(int(x) for x in row) for row in matrix))
        want = self._oracle_memo.get(memo_key)
        if want is None:
            want = algebra.rank_fraction(matrix) if p == 0 else algebra.rank_mod(matrix, p)
            self._oracle_memo[memo_key] = want
        if want != result:
            self.counts["rank_mismatch"] += 1
            self.mismatch_queries.add(self.qid)
        self._paused += perf_counter() - t


# hooks run after a traced call returns: (tracer, args, result, scan calls before it)
def _rank_char0(tracer, args, result, scans):
    tracer.rank_seen(args, result, 0)


def _rank_mod_p(tracer, args, result, scans):
    tracer.rank_seen(args, result, args[1])


def _koszul(tracer, args, result, scans):
    if any(result):
        tracer.counts["koszul_nonzero"] += 1


def _cech(tracer, args, result, scans):
    if result:
        tracer.counts["cech_nonzero"] += 1


def _scan(tracer, args, result, scans):
    tracer.counts["scan_calls"] += 1


def _depth(tracer, args, result, scans):
    # a depth call that needed no Betti scan was answered from a cache
    if tracer.counts["scan_calls"] == scans:
        tracer.counts["depth_hits"] += 1


def _decomp(tracer, args, result, scans):
    tracer.decomp_ideals.add((args[0].ring, args[0].gens))


def _fibers(tracer, args, result, scans):
    tracer.counts["fiber_classes"] += len(result)
    tracer.counts["fiber_slices"] += sum(len(fc.patterns) for fc in result)


_EXTRA = {
    "kernels.rank_char0": _rank_char0,
    "kernels.rank_mod_p": _rank_mod_p,
    "homology.koszul_dims_at": _koszul,
    "homology.cech_piece_dim": _cech,
    "homology.betti_and_projdim": _scan,
    "homology.depth_module": _depth,
    "rings.irreducible_decomposition": _decomp,
    "invariants.fibers": _fibers,
}

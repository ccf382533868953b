"""Per-layer spans around the public functions of each qcjkls module.

Tracing wraps functions from outside the library: nothing under ``src/``
knows about it.  The modules bind names with ``from .x import y``, so
each function is wrapped at every place it is looked up, for example
``qcjkls.invariant.cjkls_state_sum`` (looked up by ``compute_invariant``)
rather than ``qcjkls.braid``'s own copy of a name.

A span's self time is its duration minus the time covered by its child
spans.  Counts come from a call's arguments and results only, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import math
from collections import defaultdict
from time import perf_counter

import qcjkls.cli
import qcjkls.cocycle
import qcjkls.invariant
import qcjkls.quandle
import qcjkls.sequences


def _scan_counts(counts, prefix, word, quandle, found):
    tuples = quandle.size**word.strands
    counts[prefix + "_tuples"] += tuples
    counts[prefix + "_tuple_letters"] += tuples * len(word.letters)
    counts[prefix + "_found"] += found


def _count_scan(counts, args, result, _):
    _scan_counts(counts, "braid.scan", args[0], args[1], len(result))


def _count_state_sum(counts, args, result, _):
    _scan_counts(counts, "invariant.state_sum", args[0], args[1], sum(result.coeffs))


def _count_closure(counts, args, result, _):
    counts["braid.closure_crossings"] += len(args[0].letters)


def _count_affine(counts, args, result, _):
    counts["braid.affine_colorings"] += len(result)


def _count_parse(counts, args, result, _):
    counts["braid.parse_letters"] += len(result.letters)


def _count_cache_load(counts, args, result, _):
    counts["invariant.cache_records_loaded"] += len(result)


def _count_lookup(counts, args, result, _):
    counts["invariant.cache_hits" if result is not None else "invariant.cache_misses"] += 1


def _file_size(args):
    path = args[0].path
    return path.stat().st_size if path.exists() else 0


def _count_store(counts, args, result, size_before):
    counts["invariant.cache_bytes_written"] += _file_size(args) - size_before


def _count_family_braid(counts, args, result, _):
    counts["sequences.family_letters"] += len(result.letters)


def _count_binomial(counts, args, result, _):
    counts["sequences.binomial_terms"] += args[0]


def _count_estimate(counts, args, result, _):
    tail = max(2, math.ceil(len(args[0]) / 3))
    counts["limits.tail_pairs"] += tail * (tail - 1) // 2


_cli, _inv, _seq = qcjkls.cli, qcjkls.invariant, qcjkls.sequences

# (owner, attribute, layer, count hook, pre-call hook).  The owner is the
# module or class through which the library looks the name up.
SITES = [
    (_cli, "main", "cli.self", None, None),
    (_cli, "parse_braid", "braid.parse", _count_parse, None),
    (_cli, "enumerate_colorings", "braid.scan", _count_scan, None),
    (_cli, "enumerate_colorings_affine", "braid.affine", _count_affine, None),
    (_cli, "compute_invariant", "invariant.compute_self", None, None),
    (_cli, "InvariantCache", "invariant.cache_load", _count_cache_load, None),
    (_cli, "load_quandle", "quandle.load", None, None),
    (_cli, "load_cocycle", "cocycle.load", None, None),
    (_cli, "build_s4", "quandle.build", None, None),
    (_cli, "build_alexander_quandle", "quandle.build", None, None),
    (_cli, "limit_estimate", "limits.estimate", _count_estimate, None),
    (_cli, "distinguish_limits", "limits.distinguish", None, None),
    (qcjkls.cocycle, "build_s4", "quandle.build", None, None),
    (qcjkls.quandle, "build_alexander_quandle", "quandle.build", None, None),
    (qcjkls.quandle.QuandleTable, "content_hash", "quandle.hash", None, None),
    (qcjkls.cocycle.Cocycle, "content_hash", "cocycle.hash", None, None),
    (_inv, "cjkls_state_sum", "invariant.state_sum", _count_state_sum, None),
    (_inv, "is_alternating_closure", "braid.closure", _count_closure, None),
    (_inv, "is_reduced_closure", "braid.closure", _count_closure, None),
    (_inv.InvariantCache, "lookup", "invariant.cache_lookup", _count_lookup, None),
    (_inv.InvariantCache, "store", "invariant.cache_store", _count_store, _file_size),
    (_seq, "family_braid", "sequences.family_braid", _count_family_braid, None),
    (_seq, "family_closed_Z", "sequences.closed_form", None, None),
    (_seq, "family_closed_f", "sequences.closed_form", None, None),
    (_seq, "family_crossing_number", "sequences.closed_form", None, None),
    (_seq, "binomial_sums", "sequences.closed_form", _count_binomial, None),
]

LAYERS = sorted({site[2] for site in SITES})


class Tracer:
    """Self time per layer and counts for the calls made while installed."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[list[float]] = []

    def _wrap(self, fn, layer, count, before):
        children = self._children
        self_s = self.self_s
        counts = self.counts

        def traced(*args, **kwargs):
            state = before(args) if before else None
            covered = [0.0]
            children.append(covered)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children.pop()
                self_s[layer] += duration - covered[0]
                if children:
                    children[-1][0] += duration
            if count:
                count(counts, args, result, state)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore it."""
        originals = [(owner, name, getattr(owner, name)) for owner, name, *_ in SITES]
        try:
            for (owner, name, original), (_, _, layer, count, before) in zip(originals, SITES):
                setattr(owner, name, self._wrap(original, layer, count, before))
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(self_s: dict[str, float], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    out = {f"{layer}_s": self_s.get(layer, 0.0) for layer in LAYERS}
    for prefix in ("braid.scan", "invariant.state_sum"):
        work = counts.get(prefix + "_tuple_letters", 0)
        out[prefix + "_tuple_letters"] = work
        out[prefix + "_ns_per_tuple_letter"] = _ratio(out[prefix + "_s"] * 1e9, work)
        out[prefix + "_hit_ratio"] = _ratio(counts.get(prefix + "_found", 0), counts.get(prefix + "_tuples", 0))
    hits = counts.get("invariant.cache_hits", 0)
    misses = counts.get("invariant.cache_misses", 0)
    out["invariant.cache_hit_ratio"] = _ratio(hits, hits + misses)
    for name in (
        "braid.closure_crossings",
        "braid.affine_colorings",
        "braid.parse_letters",
        "invariant.cache_records_loaded",
        "invariant.cache_hits",
        "invariant.cache_misses",
        "invariant.cache_bytes_written",
        "sequences.family_letters",
        "sequences.binomial_terms",
        "limits.tail_pairs",
    ):
        out[name] = counts.get(name, 0)
    return out


# Bases of the ratios above, reported next to them.
RATIO_BASES = {
    "braid.scan_hit_ratio": "braid.scan_tuples",
    "invariant.state_sum_hit_ratio": "invariant.state_sum_tuples",
    "braid.scan_ns_per_tuple_letter": "braid.scan_tuple_letters",
    "invariant.state_sum_ns_per_tuple_letter": "invariant.state_sum_tuple_letters",
}


def ratio_bases(counts: dict[str, int]) -> dict[str, int]:
    bases = {name: counts.get(base, 0) for name, base in RATIO_BASES.items()}
    bases["invariant.cache_hit_ratio"] = counts.get("invariant.cache_hits", 0) + counts.get("invariant.cache_misses", 0)
    return bases

"""Per-layer metrics of the traced run: where the wrappers go, and how spans
and counters become the metrics named in BENCHMARK.json.

Wrappers sit on the module attribute each call site looks up, so they time
the package's internal calls without editing it.  An attribute a later
version no longer has is skipped and reported, not an error.
"""

from __future__ import annotations

from typing import Dict, List

from coxpizza import conjectures, oracle, taylor

from spans import Tracer

CHECK_IDS = ("signA", "signD", "lemma51", "yNeg", "schurRecon", "tPos")

# (name, unit) in the order they are reported; every traced run reports all
# of them, 0 where the workload does not reach the layer.
METRICS = [
    ("taylor.fold_s", "s"),
    ("taylor.fold_calls", "count"),
    ("taylor.fold_terms", "count"),
    ("taylor.fold_terms_per_s", "1/s"),
    ("taylor.fold_s_t1", "s"),
    ("taylor.parallel_eff", "ratio"),
    ("taylor.yfold_s", "s"),
    ("taylor.tblock_s", "s"),
    ("polyring.divide_s", "s"),
    ("polyring.quotient_terms", "count"),
    ("polyring.reduce_s", "s"),
    ("polyring.schur_s", "s"),
    ("report.serialize_s", "s"),
    ("report.bytes", "bytes"),
    ("matchings.visited", "count"),
    ("matchings.enum_s", "s"),
    ("oracle.exact_fold_s", "s"),
    ("oracle.exact_fold_calls", "count"),
    ("oracle.degree_cap_max", "degree"),
    ("oracle.exact_value_bits", "bits"),
    ("oracle.mc_s", "s"),
    ("oracle.mc_samples_per_s", "1/s"),
    ("oracle.sum2s_s", "s"),
] + [(f"conjectures.check_s.{cid}", "s") for cid in CHECK_IDS] + [
    ("conjectures.decisive_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def _fold(tr: Tracer, args, kwargs, result) -> None:
    tr.count("taylor.fold_calls")
    tr.count("taylor.fold_terms", len(result))


def _divide(tr: Tracer, args, kwargs, result) -> None:
    tr.count("polyring.quotient_terms", len(result))


def _exact_fold(tr: Tracer, args, kwargs, result) -> None:
    value, _ = result
    tr.count("oracle.exact_fold_calls")
    tr.high("oracle.degree_cap_max", args[2] if len(args) > 2 else kwargs["degree_cap"])
    tr.high("oracle.exact_value_bits",
            max(value.numerator.bit_length(), value.denominator.bit_length()))


def _mc(tr: Tracer, args, kwargs, result) -> None:
    tr.count("oracle.mc_samples", result.samples)


WRAPPERS = [
    (taylor, "z_poly", "taylor.fold", _fold),
    (conjectures, "z_poly", "taylor.fold", _fold),
    (conjectures, "y_poly", "taylor.yfold", None),
    (conjectures, "t_poly", "taylor.tblock", None),
    (conjectures, "compose_block", "taylor.tblock", None),
    (taylor, "quotient_from_fold", "polyring.divide", _divide),
    (taylor, "reduce_mod_relation", "polyring.reduce", None),
    (conjectures, "schur_bialternant", "polyring.schur", None),
    (conjectures, "mul", "polyring.mul", None),
    (conjectures, "exact_sign_fold", "oracle.exact_fold", _exact_fold),
    (conjectures, "mc_pizza", "oracle.mc", _mc),
]
ENUMERATORS = [taylor, oracle, conjectures]


def install(tr: Tracer) -> List[str]:
    """Install every wrapper; returns the attributes that were missing."""
    missing = []
    for module, attr, span_name, observe in WRAPPERS:
        if hasattr(module, attr):
            tr.wrap(module, attr, span_name, observe)
        else:
            missing.append(f"{module.__name__}.{attr}")
    for module in ENUMERATORS:
        if hasattr(module, "enumerate_matchings"):
            tr.wrap_generator(module, "enumerate_matchings", "matchings")
        else:
            missing.append(f"{module.__name__}.enumerate_matchings")
    return missing


def compute(tr: Tracer, traced_walls: List[float], threads: int) -> Dict[str, float]:
    """Per-pass layer metrics from the spans of the traced passes.

    ``trace.overhead_frac`` is the tracer's own bookkeeping time over the
    traced passes' wall time.  The difference between traced and untraced
    passes is not used: on a shared 2-core machine one pass varies by about
    10% between repetitions, far more than the tracing costs."""
    per = 1.0 / len(traced_walls)
    c = tr.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fold_s = tr.total("taylor.fold") * per
    fold_terms = c.get("taylor.fold_terms", 0) * per
    fold_s_t1 = tr.total("taylor.fold_t1")
    mc_s = tr.total("oracle.mc") * per
    out = {
        "taylor.fold_s": fold_s,
        "taylor.fold_calls": c.get("taylor.fold_calls", 0) * per,
        "taylor.fold_terms": fold_terms,
        "taylor.fold_terms_per_s": ratio(fold_terms, fold_s),
        "taylor.fold_s_t1": fold_s_t1,
        "taylor.parallel_eff": ratio(fold_s_t1, threads * fold_s) if threads > 1 else 0.0,
        "taylor.yfold_s": tr.total("taylor.yfold") * per,
        "taylor.tblock_s": tr.total("taylor.tblock") * per,
        "polyring.divide_s": tr.total("polyring.divide") * per,
        "polyring.quotient_terms": c.get("polyring.quotient_terms", 0) * per,
        "polyring.reduce_s": tr.total("polyring.reduce") * per,
        "polyring.schur_s": (tr.total("polyring.schur")
                             + tr.total("polyring.mul", under="check.schurRecon")) * per,
        "report.serialize_s": tr.total("report.serialize") * per,
        "report.bytes": c.get("report.bytes", 0) * per,
        "matchings.visited": c.get("matchings.visited", 0) * per,
        "matchings.enum_s": c.get("matchings.enum_s", 0) * per,
        "oracle.exact_fold_s": tr.total("oracle.exact_fold") * per,
        "oracle.exact_fold_calls": c.get("oracle.exact_fold_calls", 0) * per,
        "oracle.degree_cap_max": c.get("oracle.degree_cap_max", 0),
        "oracle.exact_value_bits": c.get("oracle.exact_value_bits", 0),
        "oracle.mc_s": mc_s,
        "oracle.mc_samples_per_s": ratio(c.get("oracle.mc_samples", 0) * per, mc_s),
        "oracle.sum2s_s": tr.total("oracle.sum2s") * per,
        "conjectures.decisive_ratio": ratio(c.get("conjectures.decided", 0),
                                            c.get("oracle.exact_fold_calls", 0)),
        "trace.overhead_frac": tr.bookkeeping_seconds() / sum(traced_walls),
    }
    for cid in CHECK_IDS:
        out[f"conjectures.check_s.{cid}"] = tr.total("check." + cid) * per
    return out

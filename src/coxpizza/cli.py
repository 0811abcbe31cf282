"""Command-line interface.

Subcommands: tables (reference-table reproduction with exact comparison),
expand (quotient reports at chosen degrees), matchings (enumeration and the
sign-sum identity), oracle (numeric evaluators), check (conjecture probes).

Exit codes: 0 success/consistent, 1 verification failure, 2 usage error,
3 conjecture violation in explore mode.  Results go to stdout; refusals and
errors go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from . import KERNEL_IMPLEMENTATION, __version__
from .conjectures import (OracleDisagreement, ReconstructionMismatch, check_lemma51, check_sign_A,
                          check_sign_D, check_t_positivity, check_y_negativity, schur_reconstruct)
from .matchings import enumerate_matchings, sign, sign_sum
from .oracle import (BallSpec, a1k_pizza_series, mc_pizza, random_interior_centers,
                     require_dimension, sum_over_2structures)
from .rootsys import ArrangementSpec, parse_spec
from .taylor import (ResourceCapExceeded, dominant_coefficients, expansion_report, fold_parameters,
                     serialize_terms)

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_EXPLORE_VIOLATION = 3

# Reference quotient values: leading constant at degree |roots| and the
# coefficient of a_1^2 + ... at degree |roots| + 2 (type A entries are
# representatives modulo the sum-to-zero relation).  Cross-validated against
# the integral and Monte Carlo oracles in the test suite.
GOLDEN_ROWS = {
    ("A", 2): (Fraction(1, 2), Fraction(3, 32)),
    ("A", 3): (Fraction(-1, 6), Fraction(-1, 10)),
    ("A", 6): (Fraction(-3003, 256), Fraction(-315315, 8192)),
    ("A", 7): (Fraction(138567, 256), Fraction(323323, 128)),
    ("D", 3): (Fraction(-1, 6), Fraction(-1, 10)),
    ("D", 5): (Fraction(-143, 40), Fraction(-143, 12)),
    ("D", 7): (Fraction(-955049953, 336), Fraction(-367326905, 16)),
}
DEFAULT_A_RANKS = (2, 3, 6, 7)
DEFAULT_D_RANKS = (3, 5)
EXTENDED_D_RANKS = (3, 5, 7)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def cmd_tables(args) -> int:
    which = args.which
    rows = []
    if which in ("A", "all"):
        rows += [("A", r) for r in DEFAULT_A_RANKS]
    if which in ("D", "all"):
        rows += [("D", r) for r in (EXTENDED_D_RANKS if args.extended else DEFAULT_D_RANKS)]

    header = f"{'type':<6}{'n':>3}{'k':>3}{'|roots|':>9}  {'lead quotient':<22}{'next quotient':<34}{'status'}"
    lines = [header, "-" * len(header)]
    results = []
    for family, rank in rows:
        spec = parse_spec(f"{family}:{rank}")
        phi, k = spec.positive_root_count, fold_parameters(spec).k
        # the quotients are c_() at degree |roots| and, at |roots| + 2, c_(1) p2
        # (type D) or c_(2) h2 + c_(1,1) e2 = (c_(2) - c_(1,1))/2 p2 modulo e1 = 0
        lead = dominant_coefficients(spec, phi).get((), Fraction(0))
        second = dominant_coefficients(spec, phi + 2)
        if family == "A":
            second_coeff = (second.get((2,), Fraction(0)) - second.get((1, 1), Fraction(0))) / 2
        else:
            second_coeff = second.get((1,), Fraction(0))
        gold_lead, gold_second = GOLDEN_ROWS[(family, rank)]
        match = lead == gold_lead and second_coeff == gold_second
        results.append({
            "family": family,
            "rank": rank,
            "k": k,
            "phi_plus": phi,
            "lead_degree": phi,
            "lead": {"num": gold_lead.numerator, "den": gold_lead.denominator},
            "computed_lead": {"num": lead.numerator, "den": lead.denominator},
            "second_degree": phi + 2,
            "second_coeff": {"num": gold_second.numerator, "den": gold_second.denominator},
            "computed_second_coeff": {"num": second_coeff.numerator,
                                      "den": second_coeff.denominator},
            "match": match,
        })
        status = "ok" if match else f"MISMATCH (expected {gold_lead} and {gold_second} * p2)"
        second_text = f"{second_coeff} * (a1^2+...+a{spec.ambient_dim}^2)"
        lines.append(f"{family + '_' + str(rank):<6}{rank:>3}{k:>3}{phi:>9}  "
                     f"{str(lead):<22}{second_text:<34}{status}")

    all_match = all(row["match"] for row in results)
    if args.format == "json":
        text = json.dumps({"schema_version": 1, "rows": results, "all_match": all_match}, indent=2)
    else:
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK if all_match else EXIT_VERIFICATION_FAILURE


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def cmd_expand(args) -> int:
    spec = parse_spec(args.spec)
    degrees = [int(x) for x in args.degrees.split(",")]
    try:
        report = expansion_report(spec, degrees)
    except ResourceCapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2)
    elif args.format == "csv":
        lines = ["degree,kind,exponents,num,den"]
        for entry in report.entries:
            for term in serialize_terms(entry.quotient):
                lines.append(f"{entry.degree},quotient,{' '.join(map(str, term['exponents']))},"
                             f"{term['num']},{term['den']}")
            if entry.reduced_quotient is not None:
                for term in serialize_terms(entry.reduced_quotient):
                    lines.append(f"{entry.degree},reduced,{' '.join(map(str, term['exponents']))},"
                                 f"{term['num']},{term['den']}")
        text = "\n".join(lines)
    else:
        text = report.to_text()
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def cmd_matchings(args) -> int:
    r = args.size
    if args.sign_sum:
        _emit(str(sign_sum(r)), args.out)
        return EXIT_OK
    lines = []
    for m in enumerate_matchings(r):
        s = sign(m)
        lines.append(f"{m.render()};sign={'+1' if s > 0 else '-1'}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    spec = parse_spec(args.spec)
    center = tuple(float(x) for x in args.center.split(","))
    require_dimension(spec, center)
    ball = BallSpec(center, args.radius)
    payload = {"schema_version": 1, "spec": str(spec), "center": list(center),
               "radius": args.radius, "method": args.method}
    if args.method == "mc":
        if args.threads < 0:
            raise ValueError(f"threads must be >= 0, got {args.threads}")
        threads = args.threads or os.cpu_count() or 1
        est = mc_pizza(spec, ball, args.samples, args.seed, threads=threads)
        payload.update({"value": est.value, "std_error": est.std_error,
                        "samples": est.samples, "seed": est.seed})
    elif args.method == "series":
        if spec.family != "A1k":
            print("--method series applies to A1k arrangements only", file=sys.stderr)
            return EXIT_USAGE
        coords = [x / args.radius for x in center[: spec.rank]]
        value, tail = a1k_pizza_series(spec.ambient_dim, spec.rank, coords, args.degree_cap)
        scale = args.radius**spec.ambient_dim
        payload.update({"value": scale * value, "tail_bound": scale * tail,
                        "degree_cap": args.degree_cap})
    else:  # sum2s
        if spec.family not in ("A", "D"):
            print("--method sum2s applies to A and D arrangements only", file=sys.stderr)
            return EXIT_USAGE
        value, tail = sum_over_2structures(spec, ball, args.degree_cap)
        payload.update({"value": value, "tail_bound": tail, "degree_cap": args.degree_cap})
    if args.format == "text":
        err = payload.get("std_error", payload.get("tail_bound"))
        text = f"{payload['value']} (+- {err})"
    else:
        text = json.dumps(payload, indent=2)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _parse_centers(text: str, spec: ArrangementSpec, seed: int) -> List[Sequence[float]]:
    if text.startswith("auto:"):
        return random_interior_centers(spec, int(text.split(":", 1)[1]), seed)
    return [tuple(float(x) for x in chunk.split(",")) for chunk in text.split(";") if chunk]


def _report_exit(report, mode: str) -> int:
    if report.verdict != "violated":
        return EXIT_OK
    return EXIT_VERIFICATION_FAILURE if mode == "test" else EXIT_EXPLORE_VIOLATION


def _emit_report(report, args) -> None:
    if args.format == "text":
        lines = [f"{report.conjecture_id}: {report.verdict}"]
        for w in report.witnesses:
            lines.append(f"  witness: {json.dumps(w)}")
        for note in report.notes:
            lines.append(f"  note: {note}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(report.to_json_dict(), indent=2), args.out)


def cmd_check_sign(args) -> int:
    spec = parse_spec(args.spec)
    if spec.family not in ("A", "D"):
        print("sign checks apply to A and D arrangements", file=sys.stderr)
        return EXIT_USAGE
    centers = _parse_centers(args.centers, spec, args.seed)
    check = check_sign_A if spec.family == "A" else check_sign_D
    report = check(spec.rank, centers, args.samples, args.seed)
    mode = args.mode if args.mode != "auto" else ("test" if spec.rank <= 7 else "explore")
    _emit_report(report, args)
    return _report_exit(report, mode)


def cmd_check_yneg(args) -> int:
    report = check_y_negativity(args.rank, args.max_degree)
    mode = args.mode if args.mode != "auto" else ("test" if args.rank <= 5 else "explore")
    _emit_report(report, args)
    return _report_exit(report, mode)


def cmd_check_tpos(args) -> int:
    report = check_t_positivity(args.max_degree)
    mode = args.mode if args.mode != "auto" else ("test" if args.max_degree <= 40 else "explore")
    _emit_report(report, args)
    return _report_exit(report, mode)


def cmd_check_lemma51(args) -> int:
    report = check_lemma51(args.rank, args.degree)
    _emit_report(report, args)
    return _report_exit(report, "test")


def cmd_check_schur(args) -> int:
    report = schur_reconstruct(args.rank, args.degree)
    _emit_report(report, args)
    return _report_exit(report, "test")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxpizza",
        description="Exact Taylor expansions and numeric oracles for signed "
                    "ball volumes of reflection arrangements",
    )
    parser.add_argument("--version", action="version",
                        version=f"coxpizza {__version__} (kernel: {KERNEL_IMPLEMENTATION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="write results to a file instead of stdout")

    p = sub.add_parser("tables", help="recompute the reference quotient tables and compare exactly")
    p.add_argument("--which", choices=("A", "D", "all"), default="all")
    p.add_argument("--extended", action="store_true", help="include the rank-7 type D row")
    common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("expand", help="quotient report at chosen degrees")
    p.add_argument("--spec", required=True, help="arrangement, e.g. A:3 or D:5")
    p.add_argument("--degrees", required=True, help="comma-separated degrees")
    common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("matchings", help="enumerate maximal matchings with signs")
    p.add_argument("--size", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--list", action="store_true")
    group.add_argument("--sign-sum", dest="sign_sum", action="store_true")
    common(p, ("text",))
    p.set_defaults(func=cmd_matchings)

    p = sub.add_parser("oracle", help="numeric pizza-quantity evaluation")
    p.add_argument("--spec", required=True)
    p.add_argument("--center", required=True, help="comma-separated coordinates")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--method", choices=("mc", "series", "sum2s"), default="mc")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--degree-cap", dest="degree_cap", type=int, default=61)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for --method mc (0 = one per CPU); the estimate "
                        "is the same for any value")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("check", help="conjecture probes")
    checks = p.add_subparsers(dest="check_command", required=True)

    c = checks.add_parser("sign", help="sign prediction at sampled interior centers")
    c.add_argument("--spec", required=True)
    c.add_argument("--centers", default="auto:10",
                   help="auto:N or semicolon-separated coordinate lists")
    c.add_argument("--samples", type=int, default=0,
                   help="Monte Carlo cross-check samples (0 = series route only)")
    c.add_argument("--seed", type=int, default=20240)
    c.add_argument("--mode", choices=("auto", "test", "explore"), default="auto")
    common(c)
    c.set_defaults(func=cmd_check_sign)

    c = checks.add_parser("y-neg", help="negativity of the type D fold's dominant coefficients")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--max-degree", dest="max_degree", type=int, required=True)
    c.add_argument("--mode", choices=("auto", "test", "explore"), default="auto")
    common(c)
    c.set_defaults(func=cmd_check_yneg)

    c = checks.add_parser("t-pos", help="positivity of the two-variable block quotients")
    c.add_argument("--max-degree", dest="max_degree", type=int, required=True)
    c.add_argument("--mode", choices=("auto", "test", "explore"), default="auto")
    common(c)
    c.set_defaults(func=cmd_check_tpos)

    c = checks.add_parser("lemma51", help="monomial audit of the type D fold")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--degree", type=int, required=True)
    common(c)
    c.set_defaults(func=cmd_check_lemma51)

    c = checks.add_parser("schur", help="alternant reconstruction identity")
    c.add_argument("--rank", type=int, required=True)
    c.add_argument("--degree", type=int, required=True)
    common(c)
    c.set_defaults(func=cmd_check_schur)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ResourceCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ReconstructionMismatch, OracleDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: tables (reference-table reproduction with exact comparison),
expand (quotient reports at chosen degrees), matchings (enumeration and the
sign-sum identity), oracle (numeric evaluators), check (conjecture probes).

Exit codes: 0 success/consistent, 1 verification failure, 2 usage error
(also a refused size, an --out path that cannot be written and a float
that overflows), 3 conjecture violation in explore mode.  Results go to
stdout; refusals and errors go to stderr.

Importing this module loads only what parsing the arguments needs; each
command imports the engine modules it calls in its own body.  Without a
bytecode cache every process compiles what it imports, so --version,
--help and usage errors load no engine module, matchings loads matchings
and rootsys, tables and expand add taylor and polyring, oracle adds oracle
(not taylor), and only check loads conjectures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import KERNEL_IMPLEMENTATION, __version__

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_EXPLORE_VIOLATION = 3
# matchings --list and --sign-sum visit every matching at about 10 us each: size 14
# (135,135 matchings) takes 1.3 s; sizes 15 and 16 (2,027,025) would take about 20 s
MAX_MATCHINGS_WORK = 10**6

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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def cmd_tables(args) -> int:
    from .matchings import fold_parameters
    from .rootsys import parse_spec
    from .taylor import dominant_coefficients

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
    from .rootsys import parse_spec
    from .taylor import expansion_report

    spec = parse_spec(args.spec)
    report = expansion_report(spec, [int(x) for x in args.degrees.split(",")])
    if args.format == "json":
        text = json.dumps(report.to_json_dict(), indent=2)
    elif args.format == "csv":
        lines = ["degree,kind,exponents,num,den"]
        for entry in report.entries:
            for kind, terms in (("quotient", entry.terms()), ("reduced", entry.reduced_terms())):
                if terms is not None:  # no reduced quotient for type D
                    lines += [f"{entry.degree},{kind},{' '.join(map(str, mono))},"
                              f"{coeff.numerator},{coeff.denominator}" for mono, coeff in terms]
        text = "\n".join(lines)
    else:
        text = report.to_text()
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


def cmd_matchings(args) -> int:
    from .matchings import count_matchings, enumerate_matchings, sign, sign_sum

    r = args.size
    count = count_matchings(r)
    if count > MAX_MATCHINGS_WORK:
        raise ValueError(f"size {r}: {count} matchings exceed the cap of {MAX_MATCHINGS_WORK}")
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
    from .oracle import (BallSpec, a1k_pizza_series, mc_pizza, radius_power, require_dimension,
                         sum_over_2structures)
    from .rootsys import parse_spec

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
        scale = radius_power(args.radius, spec.ambient_dim)
        coords = [x / args.radius for x in center[: spec.rank]]
        value, tail = a1k_pizza_series(spec.ambient_dim, spec.rank, coords, args.degree_cap)
        payload.update({"value": scale * value, "tail_bound": scale * tail,
                        "degree_cap": args.degree_cap})
    else:  # sum2s
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


def _parse_centers(text: str, spec, seed: int) -> list:
    if text.startswith("auto:"):
        from .oracle import random_interior_centers

        return random_interior_centers(spec, int(text.split(":", 1)[1]), seed)
    return [tuple(float(x) for x in chunk.split(",")) for chunk in text.split(";") if chunk]


def _report_exit(report, mode: str) -> int:
    if report.verdict != "violated":
        return EXIT_OK
    return EXIT_VERIFICATION_FAILURE if mode == "test" else EXIT_EXPLORE_VIOLATION


def _check_exit(report, args, verified: bool) -> int:
    """Emit a check's report and return its exit code.  --mode auto is test
    inside the command's verified range (`verified`) and explore beyond it;
    check lemma51 and check schur take no --mode and are always verified."""
    if args.format == "text":
        lines = [f"{report.conjecture_id}: {report.verdict}"]
        lines += [f"  witness: {json.dumps(w)}" for w in report.witnesses]
        lines += [f"  note: {note}" for note in report.notes]
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
    mode = getattr(args, "mode", "auto")
    return _report_exit(report, ("test" if verified else "explore") if mode == "auto" else mode)


def cmd_check_sign(args) -> int:
    from .conjectures import check_sign_A, check_sign_D
    from .rootsys import parse_spec

    spec = parse_spec(args.spec)
    if spec.family not in ("A", "D"):
        print("sign checks apply to A and D arrangements", file=sys.stderr)
        return EXIT_USAGE
    centers = _parse_centers(args.centers, spec, args.seed)
    check = check_sign_A if spec.family == "A" else check_sign_D
    return _check_exit(check(spec.rank, centers, args.samples, args.seed), args, spec.rank <= 7)


def cmd_check_yneg(args) -> int:
    from .conjectures import check_y_negativity

    return _check_exit(check_y_negativity(args.rank, args.max_degree), args, args.rank <= 5)


def cmd_check_tpos(args) -> int:
    from .conjectures import check_t_positivity

    return _check_exit(check_t_positivity(args.max_degree), args, args.max_degree <= 40)


def cmd_check_lemma51(args) -> int:
    from .conjectures import check_lemma51

    return _check_exit(check_lemma51(args.rank, args.degree), args, True)


def cmd_check_schur(args) -> int:
    from .conjectures import schur_reconstruct

    return _check_exit(schur_reconstruct(args.rank, args.degree), args, True)


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # the engine's refusals and failed verifications; the command that
        # raised one has loaded its module already
        from .taylor import ResourceCapExceeded

        if isinstance(exc, ResourceCapExceeded):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        from .conjectures import OracleDisagreement, ReconstructionMismatch

        if isinstance(exc, (ReconstructionMismatch, OracleDisagreement)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION_FAILURE
        raise


if __name__ == "__main__":
    sys.exit(main())

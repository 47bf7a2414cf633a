"""Command-line front end.

Every subcommand prints either human-oriented text (default) or a JSON
document (--format json) to stdout.  Exit status: 0 on success, 1 for
usage or input-data problems (including insufficient declared precision),
2 when a verification subcommand ran to completion and the property under
test failed.

Series arguments accept the text format of the library ("frac=[0,1]",
"frac=rational:[1]/[0,0,1]", "poly=[1,1]; frac=periodic:[]|[1]", ...)
with q taken from --q.  A bare bracket list after frac= is read as the
exact series with those digits and a zero tail; use "frac=finite:[...]"
to declare truncated data instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .cantor import ConstructionSchedule, dimension_lower_bound, measure_after_stages
from .errors import FfbaError, InsufficientPrecisionError
from .field import Field
from .hankel import HankelView, rank_profile
from .indices import DEFAULT_J_CUTOFF, indices_sequence, rationality_probe
from .polynomial import Poly
from .qval import qexp
from .series import (FiniteSource, LaurentSeries, PeriodicSource,
                     _parse_codes, expand_rational, parse_series, series_to_text)
from .targets import Certificate, gamma_prefix, verify_certificate
from .verify import (c_depth_weighted, find_witness_small, liminf_structure,
                     m0_structure, make_liminf_theta)
from .weights import GeneralizedWeight, deviation_range, parse_weight

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this front end reserves 2 for
    verification failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------

def _field_of(args) -> Field:
    modulus = _parse_codes(args.modulus) if getattr(args, "modulus", None) else None
    return Field.of_order(args.q, modulus)


def _parse_series_arg(text: str, field: Field) -> LaurentSeries:
    body = text.strip()
    if "frac=" not in body:
        body = "frac=" + body
    s = parse_series(body, field)
    if isinstance(s.frac, FiniteSource) and "finite:" not in body:
        # bare digit list: the exact series with a zero tail
        s = LaurentSeries(field, s.poly_part, PeriodicSource(s.frac.codes, (0,)))
    return s


def _inputs(args) -> tuple[Field, tuple[LaurentSeries, ...], GeneralizedWeight | None]:
    """The field, the theta vector and its weight (equal when d > 1 and
    none is given)."""
    field = _field_of(args)
    vec = tuple(_parse_series_arg(t, field) for t in args.theta)
    spec = getattr(args, "weight", None)
    if spec is not None:
        return field, vec, parse_weight(spec, len(vec))
    return field, vec, GeneralizedWeight.equal(len(vec)) if len(vec) > 1 else None


def _render_text(obj, indent: str = "") -> list[str]:
    lines: list[str] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, dict):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_text(v, indent + "  "))
            elif isinstance(v, list) and v and isinstance(v[0], dict):
                lines.append(f"{indent}{k}:")
                for item in v:
                    flat = ", ".join(f"{kk}={json.dumps(vv)}"
                                     for kk, vv in item.items())
                    lines.append(f"{indent}  - {flat}")
            else:
                lines.append(f"{indent}{k}: {json.dumps(v)}")
    else:
        lines.append(f"{indent}{json.dumps(obj)}")
    return lines


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        print("\n".join(_render_text(obj)))


def _add_common(p: _Parser, theta: bool = False, weight: bool = False) -> None:
    p.add_argument("--q", type=int, required=True, help="field order (prime power)")
    p.add_argument("--modulus", help="irreducible modulus coefficients for q = p^k")
    if theta:
        p.add_argument("--theta", action="append", required=True,
                       help="series coordinate; repeat for higher dimension")
    if weight:
        p.add_argument("--weight",
                       help="weight: r:1/2,1/2 | assign:0,1,... | equal")
    p.add_argument("--format", choices=("text", "json"), default="text")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_expand(args) -> int:
    field = _field_of(args)
    num = Poly(field, _parse_codes(args.num))
    den = Poly(field, _parse_codes(args.den))
    if den.is_zero:
        raise ValueError("denominator must be nonzero")
    series = expand_rational(num, den)
    pre, per = series.frac.period_info()
    _emit({
        "q": field.q,
        "poly": list(series.poly_part.coeffs),
        "prec": args.prec,
        "frac_prefix": series.frac_coeffs(args.prec),
        "preperiod": pre,
        "period": per,
        "text": series_to_text(series),
    }, args.format)
    return EXIT_OK


def _cmd_hankel(args) -> int:
    field, vec, weight = _inputs(args)
    view = HankelView.of(vec, weight, args.rows, args.cols)
    rows = view.stacked_rows()
    _emit({
        "q": field.q,
        "rows": args.rows,
        "cols": args.cols,
        "block_heights": list(view.block_heights()),
        "matrix": [list(r) for r in rows],
        "rank": (rank_profile(vec, weight, args.rows, args.cols) or [0])[-1],
    }, args.format)
    return EXIT_OK


def _cmd_indices(args) -> int:
    _, vec, weight = _inputs(args)
    trace = indices_sequence(vec, weight, args.ell,
                             stage_budget=args.stages, j_cutoff=args.j_cutoff)
    verdict = rationality_probe(vec, args.ell, stage_budget=args.stages,
                                j_cutoff=args.j_cutoff, weight=weight,
                                trace=trace)
    out = trace.to_json()
    out["rationality"] = verdict.kind
    _emit(out, args.format)
    return EXIT_OK


def _cmd_gamma(args) -> int:
    _, vec, weight = _inputs(args)
    policy = args.policy
    if policy == "lexmin" and args.seed is not None:
        policy = "seeded-random"
    cert = gamma_prefix(vec, weight, args.ell,
                        stage_budget=args.stages, j_cutoff=args.j_cutoff,
                        policy=policy, seed=args.seed)
    _emit(cert.to_json(), args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    field, vec, weight = _inputs(args)
    gvec = tuple(_parse_series_arg(g, field) for g in args.gamma)
    prec = args.prec if args.prec is not None \
        else args.max_deg + args.ell + 8
    report = c_depth_weighted(vec, gvec, weight, args.max_deg, prec=prec)
    out = report.to_json()
    out["q"] = field.q
    out["prec"] = prec
    status = EXIT_OK
    if report.value is None:
        status = EXIT_VERIFY
        out["verdict"] = "inconclusive"
    elif args.expect_exp is not None or args.min_exp is not None:
        ok = (report.value == qexp(args.expect_exp) if args.expect_exp is not None
              else report.value >= qexp(args.min_exp))
        out["verdict"] = "pass" if ok else "fail"
        status = EXIT_OK if ok else EXIT_VERIFY
    _emit(out, args.format)
    return status


def _cmd_witness(args) -> int:
    field, vec, _ = _inputs(args)
    gamma = _parse_series_arg(args.gamma, field)
    report = find_witness_small(vec[0], gamma, max_m=args.max_m)
    out = {
        "q": field.q,
        "found": report.found,
        "witness": list(report.witness.coeffs) if report.witness else None,
        "rows": report.rows,
        "bound": report.bound.to_json() if report.bound else None,
        "value": report.value.to_json() if report.value else None,
    }
    _emit(out, args.format)
    return EXIT_OK if report.found else EXIT_VERIFY


def _cmd_m0(args) -> int:
    field, vec, weight = _inputs(args)
    report = m0_structure(vec, args.depth, weight)
    out = report.to_json()
    out["q"] = field.q
    _emit(out, args.format)
    return EXIT_OK


def _cmd_liminf_theta(args) -> int:
    field = _field_of(args)
    series = make_liminf_theta(field)
    # sizes through the k-th alternation: the k-th one sits at depth
    # 2^{k+1} - 2, and invertibility returns by the following even size
    depth = args.prec if args.prec is not None else 2 ** (args.k + 1)
    prefix = series.frac_coeffs(depth)
    structure = liminf_structure(series, depth, args.k)
    _emit({
        "q": field.q,
        "text": series_to_text(series),
        "prec": depth,
        "frac_prefix": prefix,
        "ones_at": [i + 1 for i, c in enumerate(prefix) if c],
        "k": args.k,
        "alternations": [list(p) for p in structure.alternations],
        "meets_k": structure.meets_k,
    }, args.format)
    return EXIT_OK if structure.meets_k else EXIT_VERIFY


def _schedule_doc(args) -> tuple[ConstructionSchedule, dict]:
    schedule = ConstructionSchedule.constant(_parse_codes(args.ell), args.ellp)
    return schedule, {"q": args.q, "d": schedule.d, "ell": list(schedule.ell),
                      "ellp": schedule.ellp, "stages": args.stages}


def _cmd_measure(args) -> int:
    schedule, out = _schedule_doc(args)
    measure = measure_after_stages(schedule, args.stages, args.q)
    out.update(measure_num=measure.numerator, measure_den=measure.denominator)
    _emit(out, args.format)
    return EXIT_OK


def _cmd_dimension(args) -> int:
    schedule, out = _schedule_doc(args)
    out["bound"] = dimension_lower_bound(schedule, q=args.q)
    if args.stages is not None:
        measure = measure_after_stages(schedule, args.stages, args.q)
        out.update(measure_num=measure.numerator, measure_den=measure.denominator,
                   finite_stage_bound=dimension_lower_bound(schedule, args.stages,
                                                            q=args.q))
    _emit(out, args.format)
    return EXIT_OK


def _cmd_weights(args) -> int:
    weight = parse_weight(args.weight, args.d)
    table = [{"h": h, "step": weight.assign(h) if h >= 1 else None,
              "eval": list(weight.eval(h))}
             for h in range(args.h_max + 1)]
    out = {"d": weight.d, "weight": weight.to_text(), "table": table}
    if weight.kind == "real":
        lo, hi = deviation_range(weight.real, args.h_max)
        out["deviation"] = {
            "lo": [lo.numerator, lo.denominator],
            "hi": [hi.numerator, hi.denominator],
        }
    _emit(out, args.format)
    return EXIT_OK


def _cmd_certificate_check(args) -> int:
    if args.file == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    cert = Certificate.from_json(payload)
    report = verify_certificate(cert)
    out = {
        "ok": report.ok,
        "stages": len(cert.stages),
        "truncated": cert.truncated,
        **({"bound_exponent": report.bound_exponent} if report.ok else {}),
        "checks": [{"name": n, "ok": ok, "detail": detail}
                   for n, ok, detail in report.checks],
    }
    _emit(out, args.format)
    return EXIT_OK if report.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    root = _Parser(prog="ffba",
                   description="badly approximable targets over F_q((1/t))")
    sub = root.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    p = sub.add_parser("expand", help="expand num/den into a series")
    _add_common(p)
    p.add_argument("--num", required=True)
    p.add_argument("--den", required=True)
    p.add_argument("--prec", type=int, default=16)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("hankel", help="stacked coefficient matrix and rank")
    _add_common(p, theta=True, weight=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(fn=_cmd_hankel)

    p = sub.add_parser("indices", help="rank walk of matrix extents")
    _add_common(p, theta=True, weight=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--stages", type=int, default=8)
    p.add_argument("--j-cutoff", type=int, default=DEFAULT_J_CUTOFF)
    p.set_defaults(fn=_cmd_indices)

    p = sub.add_parser("gamma", help="construct a target digit prefix")
    _add_common(p, theta=True, weight=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--stages", type=int, default=8)
    p.add_argument("--j-cutoff", type=int, default=DEFAULT_J_CUTOFF)
    p.add_argument("--policy", choices=("lexmin", "seeded-random"),
                   default="lexmin")
    p.add_argument("--seed", type=int,
                   help="seed for the seeded-random policy")
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("verify", help="evaluate the approximation constant")
    _add_common(p, theta=True, weight=True)
    p.add_argument("--gamma", action="append", required=True)
    p.add_argument("--max-deg", type=int, default=6)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--prec", type=int,
                   help="tail scan depth (default max-deg + ell + 8)")
    p.add_argument("--expect-exp", type=int,
                   help="require the value to equal q^e exactly")
    p.add_argument("--min-exp", type=int,
                   help="require the value to be at least q^e")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("witness", help="find one small-value witness")
    _add_common(p, theta=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--max-m", type=int, default=4)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("m0", help="invertibility spectrum of square extents")
    _add_common(p, theta=True, weight=True)
    p.add_argument("--depth", type=int, default=16,
                   help="largest square size to check")
    p.set_defaults(fn=_cmd_m0)

    p = sub.add_parser("liminf-theta",
                       help="series giving quality only along a subsequence")
    _add_common(p)
    p.add_argument("--k", type=int, default=4,
                   help="alternations the spectrum must show")
    p.add_argument("--prec", type=int,
                   help="spectrum depth / prefix length (default 2^(k+1))")
    p.set_defaults(fn=_cmd_liminf_theta)

    p = sub.add_parser("measure", help="surviving measure of a schedule")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", required=True,
                   help="per-coordinate stage lengths, e.g. 2 or 2,1")
    p.add_argument("--ellp", type=int)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("dimension", help="dimension lower bound of a schedule")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", required=True)
    p.add_argument("--ellp", type=int)
    p.add_argument("--stages", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_dimension)

    p = sub.add_parser("weights", help="inspect a generalized weight")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--h-max", type=int, default=12)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_weights)

    p = sub.add_parser("certificate-check",
                       help="re-verify a stored construction certificate")
    p.add_argument("--file", required=True, help="certificate JSON ('-' = stdin)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_certificate_check)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InsufficientPrecisionError as exc:
        print(f"ffba: insufficient precision: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FfbaError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"ffba: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

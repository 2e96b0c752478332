"""Command-line front end. Every command prints a single JSON document
(or CSV for scan survivor dumps) and follows one exit-code contract:

    0   success / agreement / covered
    1   valid negative answer (e.g. pair not covered)
    2   mathematical failure event (beta = 0, nonlinear quotient, mismatch)
    3   precision exhausted (depth cap hit while certifying an expansion)
    64  usage error

Rationals are printed as exact 'num/den' strings; floats appear only in
clearly-labelled convenience fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import conditions, laurent, patterns, recurrence, search
from .fields import PrimeField, is_prime
from .laurent import InsufficientDepth

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MATH_FAILURE = 2
EXIT_NO_PRECISION = 3
EXIT_USAGE = 64

_CONFIG_KEYS = ("horizon", "blocks", "jobs", "primes_max", "depth_cap")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r} ({exc})")


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _emit(doc, args) -> None:
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_config(path: str | None) -> dict:
    """Optional key=value file supplying defaults (horizon, blocks, jobs, ...)."""
    if not path:
        return {}
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}; known: {_CONFIG_KEYS}")
            out[key] = int(value)
    return out


def _setting(args, cfg: dict, key: str, fallback: int) -> int:
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return cfg.get(key, fallback)


def _scalar_list(values, as_residue: bool):
    if as_residue:
        return [int(x) for x in values]
    try:
        return [str(x) for x in values]
    except ValueError as exc:  # Python's int-to-str digit limit
        raise SystemExit(f"an exact value is too long to print: {exc}")


def _require_prime(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise SystemExit(f"p must be a prime >= 3, got {p}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_recurrence(args, cfg) -> int:
    n = args.n
    if args.p is not None:
        _require_prime(args.p)
        field = PrimeField(args.p)
        u, v = field.from_rational(args.u), field.from_rational(args.v)
    else:
        u, v = args.u, args.v
    run = recurrence.init_run(u, v)
    if run.ok:
        run.extend(n)
    mod_p = args.p is not None
    doc = {
        "u": int(u) if mod_p else str(u),
        "v": int(v) if mod_p else str(v),
        "field": f"F_{args.p}" if mod_p else "Q",
        "n": n,
        "alphas": _scalar_list(run.alphas[:n], mod_p),
        "betas": _scalar_list(run.betas[:n], mod_p),
    }
    if run.ok:
        doc["status"] = "ok"
    else:
        doc["status"] = {"failed_at": run.failure.index, "cause": run.failure.cause}
    _emit(doc, args)
    return EXIT_OK if run.ok else EXIT_MATH_FAILURE


def _extract_with_retry(u, v, terms: int, depth_cap: int):
    """expand + extract, doubling depth on InsufficientDepth up to the cap.

    Returns (cf, series, depth). Raises InsufficientDepth once the cap is hit.
    """
    depth = 2 * terms + 4
    while True:
        series = laurent.expand_g(u, v, depth)
        try:
            return laurent.cf_extract(series, terms), series, depth
        except InsufficientDepth:
            if depth >= depth_cap:
                raise
            depth = min(2 * depth, depth_cap)


def cmd_cf(args, cfg) -> int:
    n = args.n
    depth_cap = _setting(args, cfg, "depth_cap", 64 * (2 * n + 4))
    run = recurrence.init_run(args.u, args.v)
    if run.ok:
        run.extend(n)
    try:
        cf, _, depth = _extract_with_retry(args.u, args.v, n, depth_cap)
    except InsufficientDepth as exc:
        doc = {
            "u": str(args.u),
            "v": str(args.v),
            "n": n,
            "recurrence": {
                "alphas": _scalar_list(run.alphas[:n], False),
                "betas": _scalar_list(run.betas[:n], False),
                "status": "ok" if run.ok else
                {"failed_at": run.failure.index, "cause": run.failure.cause},
            },
            "extraction": f"depth exhausted at cap {depth_cap}: {exc}",
        }
        if not run.ok:
            # a beta hit zero and no further quotient is certifiable at any
            # depth: the continued fraction may simply terminate (rational g)
            doc["verdict"] = f"RECURRENCE FAILED at {run.failure.index}"
            _emit(doc, args)
            return EXIT_MATH_FAILURE
        doc["verdict"] = "DEPTH_EXHAUSTED"
        _emit(doc, args)
        return EXIT_NO_PRECISION

    doc = {
        "u": str(args.u),
        "v": str(args.v),
        "n": n,
        "expansion_depth": depth,
        "recurrence": {
            "alphas": _scalar_list(run.alphas[:n], False),
            "betas": _scalar_list(run.betas[:n], False),
            "status": "ok" if run.ok else
            {"failed_at": run.failure.index, "cause": run.failure.cause},
        },
        "extracted": cf.to_json_dict(),
    }

    nonlinear = cf.first_nonlinear()
    if nonlinear is not None:
        doc["verdict"] = f"NONLINEAR at {nonlinear}"
        _emit(doc, args)
        return EXIT_MATH_FAILURE
    if not run.ok and run.failure.index <= n:
        doc["verdict"] = f"RECURRENCE FAILED at {run.failure.index}"
        _emit(doc, args)
        return EXIT_MATH_FAILURE

    alphas = cf.linear_constants()
    disagree = None
    for i in range(1, n + 1):
        if cf.beta(i) != run.beta(i) or alphas[i - 1] != run.alpha(i):
            disagree = i
            break
    doc["verdict"] = "AGREE" if disagree is None else f"DISAGREE at {disagree}"
    _emit(doc, args)
    return EXIT_OK if disagree is None else EXIT_MATH_FAILURE


def cmd_check(args, cfg) -> int:
    u, v = args.u, args.v
    if args.p is not None:
        _require_prime(args.p)
        witnesses = conditions.check_pair(u, v, args.p)
        doc = {
            "u": u,
            "v": v,
            "p": args.p,
            "witnesses": [w.to_json_dict() for w in witnesses],
            "covered": bool(witnesses),
        }
        _emit(doc, args)
        return EXIT_OK if witnesses else EXIT_NEGATIVE
    primes_max = _setting(args, cfg, "primes_max", 1000)
    w = conditions.covered_up_to(u, v, primes_max)
    doc = {
        "u": u,
        "v": v,
        "primes_max": primes_max,
        "witness": w.to_json_dict() if w else None,
        "covered": w is not None,
    }
    _emit(doc, args)
    return EXIT_OK if w else EXIT_NEGATIVE


def cmd_scan(args, cfg) -> int:
    horizon = _setting(args, cfg, "horizon", search.DEFAULT_HORIZON)
    jobs = _setting(args, cfg, "jobs", 1)
    results = search.scan_range(args.p_min, args.p_max, horizon, jobs=jobs)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "u", "v", "first_zero"])
        for res in results:
            writer.writerows(res.csv_rows())
        _emit(buf.getvalue().rstrip("\n"), args)
        return EXIT_OK
    doc = {
        "p_min": args.p_min,
        "p_max": args.p_max,
        "max_index": horizon,
        "results": [r.to_json_dict() for r in results],
        "summary": {
            "primes_scanned": len(results),
            "extra_survivors": sorted(
                (r.p, u, v) for r in results for (u, v) in r.extra_survivors
            ),
            "missing": sorted(
                (r.p, u, v) for r in results for (u, v) in r.missing
            ),
        },
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_density(args, cfg) -> int:
    primes_max = _setting(args, cfg, "primes_max", 1000)
    jobs = _setting(args, cfg, "jobs", 1)
    report = search.density(args.B, primes_max, jobs=jobs)
    _emit(report.to_json_dict(), args)
    return EXIT_OK


def cmd_verify_lemma(args, cfg) -> int:
    _require_prime(args.p)
    blocks = _setting(args, cfg, "blocks", 100)
    specs = patterns.specs_for_prime(args.p, blocks)
    specs = [s for s in specs if s.lemma == args.lemma]
    if args.phi is not None:
        specs = [s for s in specs if s.phi == args.phi % args.p]
    if args.delta is not None:
        specs = [s for s in specs if s.delta == args.delta % args.p]
    if args.sign is not None:
        specs = [s for s in specs if s.sign == args.sign]
    reports = [patterns.verify_lemma(s) for s in specs]
    doc = {
        "lemma": args.lemma,
        "p": args.p,
        "K": blocks,
        "instances": [r.to_json_dict() for r in reports],
        "pass": bool(reports) and all(r.passed for r in reports),
    }
    _emit(doc, args)
    if not reports:
        return EXIT_NEGATIVE
    return EXIT_OK if doc["pass"] else EXIT_MATH_FAILURE


def cmd_mu(args, cfg) -> int:
    n = args.n
    depth_cap = _setting(args, cfg, "depth_cap", 64 * (2 * n + 4))
    try:
        cf, _, depth = _extract_with_retry(args.u, args.v, n, depth_cap)
    except InsufficientDepth as exc:
        _emit({"verdict": "DEPTH_EXHAUSTED", "detail": str(exc), "depth_cap": depth_cap}, args)
        return EXIT_NO_PRECISION
    degrees = laurent.convergent_denominator_degrees(cf)
    lo = args.window_start
    hi = len(degrees) - 1 if args.window_end is None else min(args.window_end, len(degrees) - 1)
    window = degrees[lo : hi + 1]
    try:
        estimate = laurent.mu_estimate(window)
    except laurent.NeedTwoTerms as exc:
        raise SystemExit(f"window [{lo}, {hi}] too small: {exc}")
    doc = {
        "u": str(args.u),
        "v": str(args.v),
        "terms": n,
        "expansion_depth": depth,
        "degrees": degrees,
        "window": [lo, hi],
        "estimate": str(estimate),
        "estimate_float": float(estimate),
        "label": f"irrationality-exponent estimate at depth {n} (not a limit)",
    }
    _emit(doc, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mahlercf",
        description="Exact continued-fraction engine for the cubic Mahler products "
        "z^-1 * prod(1 + u/z^(3^t) + v/z^(2*3^t)); see README for the exit-code contract.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON/CSV document here instead of stdout")
        sp.add_argument("--config", help="key=value file with defaults "
                        f"({', '.join(_CONFIG_KEYS)})")

    sp = sub.add_parser("recurrence", help="run the block recurrence, exact output")
    sp.add_argument("-u", type=_fraction, required=True, help="u (exact rational; use -u=-2/3 for negatives)")
    sp.add_argument("-v", type=_fraction, required=True, help="v (exact rational)")
    sp.add_argument("-p", type=int, help="work in F_p instead of Q")
    sp.add_argument("-n", type=_positive, required=True, help="indices to compute (>= 3)")
    common(sp)
    sp.set_defaults(fn=cmd_recurrence)

    sp = sub.add_parser("cf", help="series-extraction oracle vs recurrence agreement")
    sp.add_argument("-u", type=_fraction, required=True)
    sp.add_argument("-v", type=_fraction, required=True)
    sp.add_argument("-n", type=_positive, required=True, help="continued-fraction terms to compare")
    sp.add_argument("--depth-cap", dest="depth_cap", type=_positive,
                    help="maximum expansion depth before giving up (exit 3)")
    common(sp)
    sp.set_defaults(fn=cmd_cf)

    sp = sub.add_parser("check", help="which local conditions hold for (u, v)")
    sp.add_argument("-u", type=int, required=True)
    sp.add_argument("-v", type=int, required=True)
    sp.add_argument("-p", type=int, help="check this prime only")
    sp.add_argument("--primes-max", dest="primes_max", type=_positive,
                    help="scan primes 3..M for the first witness (default 1000)")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("scan", help="survivor scan over F_p^2 for a prime range")
    sp.add_argument("--p-min", dest="p_min", type=_positive, required=True)
    sp.add_argument("--p-max", dest="p_max", type=_positive, required=True)
    sp.add_argument("-N", dest="horizon", type=_positive,
                    help=f"survivor horizon (default {search.DEFAULT_HORIZON})")
    sp.add_argument("--jobs", type=_positive, help="parallel shards (default 1)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp)
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("density", help="covered fraction of integer pairs in [-B, B]^2")
    sp.add_argument("-B", type=int, required=True)
    sp.add_argument("--primes-max", dest="primes_max", type=_positive)
    sp.add_argument("--jobs", type=_positive)
    common(sp)
    sp.set_defaults(fn=cmd_density)

    sp = sub.add_parser("verify-lemma", help="check a mod-p pattern family against real runs")
    sp.add_argument("--lemma", type=int, required=True, choices=range(1, 8),
                    help="pattern family (1..7, one per condition case)")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--phi", type=int, help="restrict to this phi parameter")
    sp.add_argument("--delta", type=int, help="restrict to this delta parameter")
    sp.add_argument("--sign", type=int, choices=(1, -1), help="restrict to one sign")
    sp.add_argument("-K", dest="blocks", type=_positive,
                    help="verify indices up to 9K+9 (default 100)")
    common(sp)
    sp.set_defaults(fn=cmd_verify_lemma)

    sp = sub.add_parser("mu", help="finite-depth irrationality-exponent estimate")
    sp.add_argument("-u", type=_fraction, required=True)
    sp.add_argument("-v", type=_fraction, required=True)
    sp.add_argument("-n", type=_positive, required=True, help="continued-fraction terms")
    sp.add_argument("--window-start", dest="window_start", type=int, default=0,
                    help="first convergent index k of the ratio window")
    sp.add_argument("--window-end", dest="window_end", type=int,
                    help="last convergent index k (default: all)")
    sp.add_argument("--depth-cap", dest="depth_cap", type=_positive)
    common(sp)
    sp.set_defaults(fn=cmd_mu)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _load_config(getattr(args, "config", None))
    except (OSError, ValueError) as exc:
        print(f"mahlercf: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args, cfg)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        print(f"mahlercf: {exc.code}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

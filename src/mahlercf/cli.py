"""Command-line front end. Every command returns one JSON document (or CSV
rows for scan survivor dumps) with its exit code, and ``main`` writes the
document to stdout or to --out as it is encoded. The exit codes follow one
contract:

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
import itertools
import json
import sys
from fractions import Fraction

from . import conditions, laurent, patterns, recurrence, search
from .cliargs import (
    EXIT_USAGE,
    MAX_BLOCKS,
    MAX_DENSITY_CELLS,
    MAX_DEPTH,
    MAX_HORIZON,
    MAX_JOBS,
    MAX_PRIMES_MAX,
    MAX_SCAN_PRIME,
    build_parser,
)
from .fields import check_odd_prime
from .laurent import InsufficientDepth

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MATH_FAILURE = 2
EXIT_NO_PRECISION = 3


def _write(doc, fh) -> None:
    # encoded into fh a piece of 4096 chunks (JSON tokens or CSV rows) at a
    # time: no copy of the whole text is held, and an unbuffered stdout is
    # not written once per number or per row
    if isinstance(doc, dict):
        chunks = itertools.chain(json.JSONEncoder(indent=2).iterencode(doc), "\n")
    else:
        # imported here, so only `scan --format csv` loads csv; writerow
        # returns what its file's write returns: here the row's text
        import csv

        chunks = map(csv.writer(argparse.Namespace(write=str)).writerow, doc)
    while piece := "".join(itertools.islice(chunks, 4096)):
        fh.write(piece)


def _emit(doc, args) -> None:
    if not getattr(args, "out", None):
        return _write(doc, sys.stdout)
    try:
        with open(args.out, "w") as fh:
            _write(doc, fh)
    except OSError as exc:
        raise SystemExit(f"cannot write --out {args.out}: {exc.strerror}")


def _require_prime(p: int) -> None:
    try:
        check_odd_prime(p)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _require_at_most(flag: str, n: int, limit: int) -> None:
    if n > limit:
        raise SystemExit(f"{flag} {n} is above the limit of {limit}")


def _residue(name: str, x: Fraction, p: int) -> int:
    """x reduced mod p; a usage error when p divides its denominator."""
    if x.denominator % p == 0:
        raise SystemExit(f"-{name}={x} has no residue mod {p}: {p} divides its denominator")
    return x.numerator * pow(x.denominator, -1, p) % p


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _printed(values):
    """Rationals as exact 'num/den' strings; a usage error past Python's
    int-to-str digit limit. cf, mu and recurrence over Q print u and v this
    way before any run, so an unprintable input is refused up front."""
    try:
        return [str(x) for x in values]
    except ValueError as exc:
        raise SystemExit(f"an exact value is too long to print: {exc}")


def _history(u, v, p, n: int):
    """The run of (u, v) to n indices over Q (p None) or F_p, and its first
    n alphas and betas as printed, with "ok" or the failure as its status.

    Over Q the run grows through 729, 2187, 6561, ... indices below n and
    each prefix is printed, so a value past Python's int-to-str digit limit
    is refused soon after it appears, not after the whole run; each growth
    resumes the run, so the probes step no index twice.
    """
    m = n if p else min(n, 729)
    run = recurrence.run_mod_p(u, v, p, m) if p else recurrence.run_over_q(u, v, m)
    while True:
        alphas, betas = run.alphas[:n], run.betas[:n]
        if not p:
            alphas, betas = _printed(alphas), _printed(betas)
        if m == n or not run.ok:
            break
        m = min(3 * m, n)
        run.extend(m)
    status = "ok" if run.ok else {"failed_at": run.failure.index, "cause": run.failure.cause}
    return run, {"alphas": alphas, "betas": betas, "status": status}


def cmd_recurrence(args):
    n, p = args.n, args.p
    _require_at_most("-n", n, MAX_HORIZON)
    if p is None:
        u, v = args.u, args.v
        shown = _printed((u, v))
    else:
        _require_prime(p)
        shown = u, v = _residue("u", args.u, p), _residue("v", args.v, p)
    run, history = _history(u, v, p, n)
    doc = dict(zip("uv", shown), field=f"F_{p}" if p else "Q", n=n, **history)
    return doc, EXIT_OK if run.ok else EXIT_MATH_FAILURE


def _depths(args) -> tuple[int, int]:
    """The first expansion depth 2n + 4 and the cap: --depth-cap, by default
    64 times the first depth and at most MAX_DEPTH; a first depth or a cap
    above MAX_DEPTH, or a cap below the first depth, is a usage error."""
    first = 2 * args.n + 4
    if first > MAX_DEPTH:
        raise SystemExit(
            f"-n {args.n} needs a first expansion depth of {first}, above the limit of {MAX_DEPTH}"
        )
    if args.depth_cap is None:
        return first, min(64 * first, MAX_DEPTH)
    _require_at_most("--depth-cap", args.depth_cap, MAX_DEPTH)
    if args.depth_cap < first:
        raise SystemExit(f"--depth-cap {args.depth_cap} is below the first expansion depth {first}")
    return first, args.depth_cap


def cmd_cf(args):
    n = args.n
    first, depth_cap = _depths(args)
    u, v = _printed((args.u, args.v))
    run, history = _history(args.u, args.v, None, n)
    failed = None if run.ok else f"RECURRENCE FAILED at {run.failure.index}"
    doc = {"u": u, "v": v, "n": n}
    try:
        cf, depth = laurent.cf_of_g(args.u, args.v, n, first, depth_cap)
    except InsufficientDepth as exc:
        doc.update(recurrence=history, extraction=f"depth exhausted at cap {depth_cap}: {exc}")
        if failed:
            # a beta hit zero and no further quotient is certifiable at any
            # depth: the continued fraction may simply terminate (rational g)
            return {**doc, "verdict": failed}, EXIT_MATH_FAILURE
        return {**doc, "verdict": "DEPTH_EXHAUSTED"}, EXIT_NO_PRECISION
    doc.update(expansion_depth=depth, recurrence=history, extracted={
        "a0": [],  # g has no polynomial part
        "terms": [{"beta": str(b), "a": [str(c) for c in a]} for b, a in cf],
    })

    nonlinear = [i for i, (_, a) in enumerate(cf, 1) if len(a) != 2]
    if nonlinear:
        return {**doc, "verdict": f"NONLINEAR at {nonlinear[0]}"}, EXIT_MATH_FAILURE
    if failed and run.failure.index <= n:
        return {**doc, "verdict": failed}, EXIT_MATH_FAILURE
    # each quotient is z + alpha_i, [alpha_i, 1]
    for i, (beta, (alpha, _)) in enumerate(cf, 1):
        if beta != run.beta(i) or alpha != run.alpha(i):
            return {**doc, "verdict": f"DISAGREE at {i}"}, EXIT_MATH_FAILURE
    return {**doc, "verdict": "AGREE"}, EXIT_OK


def cmd_check(args):
    u, v = args.u, args.v
    _require_at_most("--primes-max", args.primes_max, MAX_PRIMES_MAX)
    doc = {"u": u, "v": v}
    if args.p is not None:
        _require_prime(args.p)
        witnesses = conditions.check_pair(u, v, args.p)
        doc.update(p=args.p, witnesses=[w._asdict() for w in witnesses])
    else:
        w = conditions.covered_up_to(u, v, args.primes_max)
        witnesses = [w] if w else []
        doc.update(primes_max=args.primes_max, witness=w._asdict() if w else None)
    doc["covered"] = bool(witnesses)
    return doc, EXIT_OK if witnesses else EXIT_NEGATIVE


def cmd_scan(args):
    _require_at_most("-N", args.horizon, MAX_HORIZON)
    _require_at_most("--p-max", args.p_max, MAX_SCAN_PRIME)
    _require_at_most("--jobs", args.jobs, MAX_JOBS)
    if args.p_min > args.p_max:
        raise SystemExit(f"--p-min {args.p_min} is above --p-max {args.p_max}")
    results = search.scan_range(args.p_min, args.p_max, args.horizon, args.jobs)
    if args.format == "csv":
        header = [("p", "u", "v", "first_zero")]
        return itertools.chain(header, *(r.csv_rows() for r in results)), EXIT_OK
    doc = {
        "p_min": args.p_min,
        "p_max": args.p_max,
        "max_index": args.horizon,
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
    return doc, EXIT_OK


def cmd_density(args):
    if args.B < 0:
        raise SystemExit(f"-B {args.B} must be >= 0")
    cells = (2 * args.B + 1) ** 2
    if cells > MAX_DENSITY_CELLS:
        raise SystemExit(
            f"-B {args.B} needs a grid of {cells} cells, above the limit of {MAX_DENSITY_CELLS}"
        )
    _require_at_most("--primes-max", args.primes_max, MAX_PRIMES_MAX)
    _require_at_most("--jobs", args.jobs, MAX_JOBS)
    return search.density(args.B, args.primes_max, args.jobs).to_json_dict(), EXIT_OK


def cmd_verify_lemma(args):
    _require_at_most("-K", args.blocks, MAX_BLOCKS)
    _require_prime(args.p)
    reports = [
        patterns.verify_lemma(s) for s in patterns.specs_for_prime(args.p, args.blocks, args.lemma)
        if (args.phi is None or s.phi == args.phi % args.p)
        and (args.delta is None or s.delta == args.delta % args.p)
        and (args.sign is None or s.sign == args.sign)
    ]
    doc = {
        "lemma": args.lemma,
        "p": args.p,
        "K": args.blocks,
        "instances": [r.to_json_dict() for r in reports],
        "pass": bool(reports) and all(r.passed for r in reports),
    }
    if not reports:
        return doc, EXIT_NEGATIVE
    return doc, EXIT_OK if doc["pass"] else EXIT_MATH_FAILURE


def cmd_mu(args):
    n = args.n
    first, depth_cap = _depths(args)
    u, v = _printed((args.u, args.v))
    try:
        cf, depth = laurent.cf_of_g(args.u, args.v, n, first, depth_cap)
    except InsufficientDepth as exc:
        doc = {"verdict": "DEPTH_EXHAUSTED", "detail": str(exc), "depth_cap": depth_cap}
        return doc, EXIT_NO_PRECISION
    degrees = laurent.convergent_denominator_degrees(cf)
    lo = args.window_start
    hi = len(degrees) - 1 if args.window_end is None else min(args.window_end, len(degrees) - 1)
    window = degrees[lo : hi + 1]
    try:
        estimate = laurent.mu_estimate(window)
    except laurent.NeedTwoTerms as exc:
        raise SystemExit(f"window [{lo}, {hi}] too small: {exc}")
    doc = {
        "u": u,
        "v": v,
        "terms": n,
        "expansion_depth": depth,
        "degrees": degrees,
        "window": [lo, hi],
        "estimate": str(estimate),
        "estimate_float": float(estimate),
        "label": f"irrationality-exponent estimate at depth {n} (not a limit)",
    }
    return doc, EXIT_OK


_COMMANDS = {
    "recurrence": cmd_recurrence,
    "cf": cmd_cf,
    "check": cmd_check,
    "scan": cmd_scan,
    "density": cmd_density,
    "verify-lemma": cmd_verify_lemma,
    "mu": cmd_mu,
}


def main(argv=None) -> int:
    # argparse exits with its own code; a command's refusal and a failed
    # --out write exit with a message, a usage error
    try:
        args = build_parser().parse_args(argv)
        doc, code = _COMMANDS[args.command](args)
        _emit(doc, args)
        return code
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        print(f"mahlercf: {exc.code}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    # a closed stdout ends the process silently, as it ends a Unix filter;
    # imported here, so in-process callers of main() never load signal
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()

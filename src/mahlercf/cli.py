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
import functools
import itertools
import json
import sys
from fractions import Fraction

from . import conditions, laurent, patterns, recurrence, search
from .fields import check_odd_prime
from .laurent import InsufficientDepth

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MATH_FAILURE = 2
EXIT_NO_PRECISION = 3
EXIT_USAGE = 64

# Largest recurrence length and scan horizon. `recurrence` keeps its O(n)
# history, and `recurrence -n 10**6` on a survivor peaks at ~47 MB at
# p = 11, ~98 MB at p = 10**9 + 7 and ~124 MB at the largest admitted p,
# the largest prime below PRIMALITY_LIMIT (82 bits), where residues rarely
# repeat and the run's memo stops at kernels._MAX_STEPS units (peak RSS of
# a fresh process, the document written as it is encoded). A scan keeps no
# history: other pairs die near 2p on average, most in its memo-free probe
# to index 729, and each survivor reaches the horizon in O(log n) memo
# lookups (`scan --p-min 3 --p-max 30 -N 10**6` takes ~0.4 s, 0.34-0.43 s
# in a fresh process).
MAX_HORIZON = 10**6

# Largest `verify-lemma -K`: a run keeps its history to index 9K+9.
MAX_BLOCKS = (MAX_HORIZON - 9) // 9

# Largest expansion depth of `cf` and `mu`, the default cap of `-n 101`.
# It bounds memory, not time: on (1, -2), which doubles its depth to the
# cap, expand_g to 13184 takes ~0.03 s, but `cf -u=1 -v=-2 -n 6590` runs
# ~820 s at ~40 MB peak RSS before the extraction exhausts that depth
# (2-core box, Python 3.11); its remainder integers grow with every quotient.
# `mu` is no better: `mu -u 2 -v 4 -n 300` runs 177-213 s on the same box
# before it exits 3 (DEPTH_EXHAUSTED).
MAX_DEPTH = 64 * 206

# Largest `--primes-max` of `check` and `density`: condition_tables(10**6)
# already takes ~14 s and holds 784140 pairs, and the sieve grows with it.
MAX_PRIMES_MAX = 10**6

# Largest coverage box, in cells: B <= 4999. It bounds time, not memory:
# `density` counts the box one band of 256 rows at a time, and a fresh
# `density -B 4999 --primes-max 1000` takes ~0.3 s at ~31 MB peak RSS
# (2-core box, Python 3.11). At --primes-max 10**6 each of the 784140
# condition pairs is tested once per band, and the count at B = 4999 takes
# ~1.1 s in-process after ~5 s of building the tables.
MAX_DENSITY_CELLS = 10**8

# Largest `scan --p-max`: every prime keeps its p x p grid and its survivor
# set until the document is written. The worst case is -N 1, where nearly
# every pair survives and is listed twice per prime and once in the summary
# of the JSON document: primes up to 170 peak at ~97 MB and up to 200 at
# ~151 MB (peak RSS of a fresh process; CSV ~100 MB at 200), so 500 would
# need ~1.6 GB by extrapolation over the cells, ~220 bytes each.
MAX_SCAN_PRIME = 170


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


def _nonnegative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


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
    if args.p_min > args.p_max:
        raise SystemExit(f"--p-min {args.p_min} is above --p-max {args.p_max}")
    results = search.scan_range(args.p_min, args.p_max, args.horizon)
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
    return search.density(args.B, args.primes_max).to_json_dict(), EXIT_OK


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


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mahlercf",
        description="Exact continued-fraction engine for the cubic Mahler products "
        "z^-1 * prod(1 + u/z^(3^t) + v/z^(2*3^t)); see README for the exit-code contract.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ignored_jobs = "accepted for old command lines and ignored: every run is serial"

    def common(sp):
        sp.add_argument("--out", help="write the JSON/CSV document here instead of stdout")

    sp = sub.add_parser("recurrence", help="run the block recurrence, exact output")
    sp.add_argument("-u", type=_fraction, required=True, help="u (exact rational; use -u=-2/3 for negatives)")
    sp.add_argument("-v", type=_fraction, required=True, help="v (exact rational)")
    sp.add_argument("-p", type=int, help="work in F_p instead of Q")
    sp.add_argument("-n", type=_positive, required=True,
                    help=f"entries to print (1..{MAX_HORIZON}); the run covers whole blocks of "
                    "three through index max(n, 3) and reports a zero beta anywhere in them")
    common(sp)
    sp.set_defaults(fn=cmd_recurrence)

    sp = sub.add_parser("cf", help="series-extraction oracle vs recurrence agreement")
    sp.add_argument("-u", type=_fraction, required=True)
    sp.add_argument("-v", type=_fraction, required=True)
    sp.add_argument("-n", type=_positive, required=True,
                    help=f"continued-fraction terms to compare (2n+4 at most {MAX_DEPTH})")
    sp.add_argument("--depth-cap", dest="depth_cap", type=_positive,
                    help="maximum expansion depth before giving up (exit 3; at least 2n+4, "
                    f"default 64(2n+4), at most {MAX_DEPTH})")
    common(sp)
    sp.set_defaults(fn=cmd_cf)

    sp = sub.add_parser("check", help="which local conditions hold for (u, v)")
    sp.add_argument("-u", type=int, required=True)
    sp.add_argument("-v", type=int, required=True)
    sp.add_argument("-p", type=int, help="check this prime only")
    sp.add_argument("--primes-max", dest="primes_max", type=_positive, default=1000,
                    help="scan primes 3..M for the first witness "
                    f"(default 1000, at most {MAX_PRIMES_MAX})")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("scan", help="survivor scan over F_p^2 for a prime range")
    sp.add_argument("--p-min", dest="p_min", type=_positive, required=True)
    sp.add_argument("--p-max", dest="p_max", type=_positive, required=True,
                    help=f"largest prime to scan (at most {MAX_SCAN_PRIME})")
    sp.add_argument("-N", dest="horizon", type=_positive, default=search.DEFAULT_HORIZON,
                    help=f"survivor horizon (default {search.DEFAULT_HORIZON}, at most {MAX_HORIZON})")
    sp.add_argument("--jobs", type=_positive, help=ignored_jobs)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp)
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("density", help="covered fraction of integer pairs in [-B, B]^2")
    sp.add_argument("-B", type=int, required=True,
                    help=f"box half-width (0 <= B, (2B+1)^2 at most {MAX_DENSITY_CELLS} cells)")
    sp.add_argument("--primes-max", dest="primes_max", type=_positive, default=1000,
                    help=f"condition primes 3..M (default 1000, at most {MAX_PRIMES_MAX})")
    sp.add_argument("--jobs", type=_positive, help=ignored_jobs)
    common(sp)
    sp.set_defaults(fn=cmd_density)

    sp = sub.add_parser("verify-lemma", help="check a mod-p pattern family against real runs")
    sp.add_argument("--lemma", type=int, required=True, choices=range(1, 8),
                    help="pattern family (1..7, one per condition case)")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("--phi", type=int, help="restrict to this phi parameter")
    sp.add_argument("--delta", type=int, help="restrict to this delta parameter")
    sp.add_argument("--sign", type=int, choices=(1, -1), help="restrict to one sign")
    sp.add_argument("-K", dest="blocks", type=_positive, default=100,
                    help=f"verify indices up to 9K+9 (default 100, at most {MAX_BLOCKS})")
    common(sp)
    sp.set_defaults(fn=cmd_verify_lemma)

    sp = sub.add_parser("mu", help="finite-depth irrationality-exponent estimate")
    sp.add_argument("-u", type=_fraction, required=True)
    sp.add_argument("-v", type=_fraction, required=True)
    sp.add_argument("-n", type=_positive, required=True,
                    help=f"continued-fraction terms (2n+4 at most {MAX_DEPTH})")
    sp.add_argument("--window-start", dest="window_start", type=_nonnegative, default=0,
                    help="first convergent index k of the ratio window")
    sp.add_argument("--window-end", dest="window_end", type=_nonnegative,
                    help="last convergent index k (default: all)")
    sp.add_argument("--depth-cap", dest="depth_cap", type=_positive,
                    help=f"as for cf (at least 2n+4, default 64(2n+4), at most {MAX_DEPTH})")
    common(sp)
    sp.set_defaults(fn=cmd_mu)

    return parser


def main(argv=None) -> int:
    # argparse exits with its own code; a command's refusal and a failed
    # --out write exit with a message, a usage error
    try:
        args = _build_parser().parse_args(argv)
        doc, code = args.fn(args)
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

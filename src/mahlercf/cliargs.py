"""The command line ``cli`` admits: its limits, the types of its values and
its argument parser, which refuses a malformed command line with
``EXIT_USAGE``. ``cli`` runs the commands and checks each limit before a
run starts; the parser's help states them.

The parser lives apart from the commands because a module is compiled
from source when no bytecode cache is written, and the compile of a
module the size of both took ~0.4 MB more peak RSS than the two compiles
(2-core box, Python 3.11): ``cli`` is compiled last, on top of everything
imported before it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import search

EXIT_USAGE = 64

# Largest recurrence length and scan horizon. `recurrence` keeps its O(n)
# history, and `recurrence -n 10**6` on a survivor peaks at ~47 MB at
# p = 11, ~98 MB at p = 10**9 + 7 and ~124 MB at the largest admitted p,
# the largest prime below PRIMALITY_LIMIT (82 bits), where residues rarely
# repeat and the run's memo stops at kernels._MAX_STEPS units (peak RSS of
# a fresh process, the document written as it is encoded). A scan keeps no
# history: other pairs die near 2p on average, most in its memo-free probe
# to index 729, and each survivor reaches the horizon in O(log n) memo
# lookups (`scan --p-min 3 --p-max 30 -N 10**6` takes ~0.2 s, 0.18-0.26 s
# in a fresh process, 2-core box, Python 3.11).
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
# already takes 4.6-5.0 s in-process and holds 784140 pairs (2-core box,
# Python 3.11), and the sieve grows with it.
MAX_PRIMES_MAX = 10**6

# Largest coverage box, in cells: B <= 4999. It bounds time, not memory:
# `density` counts the box one band of 128 rows at a time, and a fresh
# `density -B 4999 --primes-max 1000` takes ~0.3 s at ~31 MB peak RSS
# (2-core box, Python 3.11). At --primes-max 10**6, 784140 condition
# pairs, the count at B = 4999 takes ~0.27-0.35 s in-process after ~5 s
# of building the tables.
MAX_DENSITY_CELLS = 10**8

# Largest `scan --p-max`: every prime keeps its p x p grid and its survivor
# set until the document is written. The worst case is -N 1, where nearly
# every pair survives and is listed twice per prime and once in the summary
# of the JSON document: primes up to 170 peak at ~97 MB and up to 200 at
# ~151 MB (peak RSS of a fresh process; CSV ~100 MB at 200), so 500 would
# need ~1.6 GB by extrapolation over the cells, ~220 bytes each.
MAX_SCAN_PRIME = 170

# Largest `--jobs` of `scan` and `density`, forked workers. No more workers
# than tasks start: a scan has one per prime (at most 38), a count one for
# row 0 and at most `jobs` slabs of the rows 1..B (at most jobs + 1).
MAX_JOBS = 64


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


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="mahlercf",
        description="Exact continued-fraction engine for the cubic Mahler products "
        "z^-1 * prod(1 + u/z^(3^t) + v/z^(2*3^t)); see README for the exit-code contract.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    jobs = (f"run in N forked worker processes (POSIX only, at most {MAX_JOBS}); "
            "the output is the same bytes (default 1: in this process)")

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

    sp = sub.add_parser("cf", help="series-extraction oracle vs recurrence agreement")
    sp.add_argument("-u", type=_fraction, required=True)
    sp.add_argument("-v", type=_fraction, required=True)
    sp.add_argument("-n", type=_positive, required=True,
                    help=f"continued-fraction terms to compare (2n+4 at most {MAX_DEPTH})")
    sp.add_argument("--depth-cap", dest="depth_cap", type=_positive,
                    help="maximum expansion depth before giving up (exit 3; at least 2n+4, "
                    f"default 64(2n+4), at most {MAX_DEPTH})")
    common(sp)

    sp = sub.add_parser("check", help="which local conditions hold for (u, v)")
    sp.add_argument("-u", type=int, required=True)
    sp.add_argument("-v", type=int, required=True)
    sp.add_argument("-p", type=int, help="check this prime only")
    sp.add_argument("--primes-max", dest="primes_max", type=_positive, default=1000,
                    help="scan primes 3..M for the first witness "
                    f"(default 1000, at most {MAX_PRIMES_MAX})")
    common(sp)

    sp = sub.add_parser("scan", help="survivor scan over F_p^2 for a prime range")
    sp.add_argument("--p-min", dest="p_min", type=_positive, required=True)
    sp.add_argument("--p-max", dest="p_max", type=_positive, required=True,
                    help=f"largest prime to scan (at most {MAX_SCAN_PRIME})")
    sp.add_argument("-N", dest="horizon", type=_positive, default=search.DEFAULT_HORIZON,
                    help=f"survivor horizon (default {search.DEFAULT_HORIZON}, at most {MAX_HORIZON})")
    sp.add_argument("--jobs", type=_positive, default=1, metavar="N", help=jobs)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp)

    sp = sub.add_parser("density", help="covered fraction of integer pairs in [-B, B]^2")
    sp.add_argument("-B", type=int, required=True,
                    help=f"box half-width (0 <= B, (2B+1)^2 at most {MAX_DENSITY_CELLS} cells)")
    sp.add_argument("--primes-max", dest="primes_max", type=_positive, default=1000,
                    help=f"condition primes 3..M (default 1000, at most {MAX_PRIMES_MAX})")
    sp.add_argument("--jobs", type=_positive, default=1, metavar="N", help=jobs)
    common(sp)

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
    return parser

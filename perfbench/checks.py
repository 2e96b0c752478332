"""Correctness gate: every job's output is checked after it is timed.

Fixed-input jobs must reproduce a pinned SHA-256 of their exact output
documents and the paper's headline values. Seeded jobs are compared with
the benchmark's own reference, computed here from the paper's formulas
without the program: the first prime and case of the condition table that
a ``check`` pair satisfies, and the recurrence mod p of a ``recurrence -p``
row. A job with any problem counts as failed, so a speed-up that changes a
result shows as a failure, not a gain.

The pins were taken from the program's numpy backend and are byte-exact:
``--jobs 2`` output is identical to serial output.
"""

from __future__ import annotations

import hashlib
import json

from jobs import (CHECK_PRIMES_MAX, EXACT_FIXED_PAIRS,
                  EXACT_FIXED_TERMS, SOUNDNESS_HORIZON, primes_up_to)

# sha256 of the exact output bytes; for multi-invocation jobs, of their
# concatenation in invocation order
DIGESTS = {
    "setup": "e3f845d01291520d723b249289dbb7112df9070bd38a3c2126e873ec88efe290",
    "scan": "366860fcefe49f17ed05bb180576f4cd17240a734ffecd9302fd34c697655421",
    "density": "b41c7024fd9960816dbb1f9ad9d622f1e0cfbf6bd600a597ae8dff44fa5d164e",
    "verify_lemma": "2fd2e06e281b454be32d47954c78b3a8becde07b79c35dc096380e6d120edf5f",
    "soundness": "04a6928d30c66d143bb947d789438f0c0d4930fec90cd0826937e0f13daaf19c",
    "cf 5 1": "78d1259d16856cf05b5333249f3ec8e5d4ffb41cf2f48e4e55e28f0fe9bb9eec",
    "cf 2 3": "e8775c30e1ef5809b852bf3e446947b81abfbb53a6fa90bd44af86132f9e335b",
    "mu 5 1": "b5915ed0e8e47a3b8a5b8d4ed53cbc050c19c5d2c321eb186a7cc89dbc103585",
    "mu 2 3": "0417742f546b72bf6b0d57989f42d538660d8c8e5e035b9f1f2664b3b613027b",
}

DENSITY_TOTAL = 4004001  # (2 * 1000 + 1)^2
DENSITY_COVERED = 3282378  # 0.8198 of the square (criterion 6)
SCAN_PRIMES = 14  # primes 3..47 (criterion 5)
LEMMA_INSTANCES = 484  # families 1-7, p <= 200, K = 100 (criterion 3)
SOUNDNESS_PAIRS = 222  # condition pairs with p <= 100 (criterion 4)


def _digest(key: str, data: bytes) -> list[str]:
    got = hashlib.sha256(data).hexdigest()
    return [] if got == DIGESTS[key] else [f"{key}: digest {got[:16]}... != pinned {DIGESTS[key][:16]}..."]


def witness_holds(case: str, p: int, u: int, v: int) -> bool:
    """The paper's case table, read directly: does (u, v) mod p satisfy case?"""
    def zero(x):
        return x % p == 0

    u, v = u % p, v % p
    if case == "C1":
        return zero(u * u - 3) and zero(v - 1)
    if case == "C2":
        return zero(u * u + 3) and zero(v + 1)
    if case == "C3":
        return zero(v) and (zero(u * u + u + 1) or zero(u * u - u + 1))
    if case == "C4":
        return zero(v + 1) and zero(u ** 4 + 4 * u * u + 1)
    if case == "C5":
        return zero(v * v - v + 1) and zero(u * u - 2 * v)
    if case == "C6":
        return zero(u) and (zero(v * v + v + 1) or zero(v * v - v + 1))
    if case == "C7":
        return p != 3 and zero(v * v + v + 1) and (zero(u - 2 * v * v) or zero(u + 2 * v * v))
    return False


CASES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


def first_witness(u: int, v: int, primes) -> tuple[int, str] | None:
    """(prime, case) of the first case, in table order, at the first prime that has one."""
    for p in primes:
        for case in CASES:
            if witness_holds(case, p, u, v):
                return p, case
    return None


def reference_row(u: int, v: int, p: int, n: int) -> tuple[list, list, dict | str]:
    """alphas[:n], betas[:n] and status of the recurrence in F_p, from its formulas.

    Mirrors the block recurrence index by index: a zero beta is recorded and
    ends the run, and a run that survives grows in blocks of three to n.
    """
    def inv(x):
        return pow(x, -1, p)

    u, v = u % p, v % p
    a, b = [-u % p], [1, (u * u - v) % p]

    def result(fail):
        status = "ok" if fail is None else {"failed_at": fail, "cause": "beta_zero"}
        return a[:n], b[:n], status

    if b[1] == 0:
        return result(2)
    d = inv((v - u * u) % p)
    a += [u * (2 * v - 1 - u * u) * d % p, -u * (v - 1) * d % p]
    b.append((u * u + u ** 4 + v ** 3 - 3 * u * u * v) * d * d % p)
    if b[2] == 0:
        return result(3)
    k = 0
    while len(b) < n:
        # 0-based: b[i - 1] is beta_i; beta_{3k+2}, beta_{3k+3} are nonzero here
        a.append(-u % p)
        b4 = b[k + 1] * inv(b[3 * k + 2] * b[3 * k + 1] % p) % p
        b.append(b4)
        if b4 == 0:
            return result(3 * k + 4)
        b5 = (u * u - v - b4) % p
        b.append(b5)
        if b5 == 0:
            return result(3 * k + 5)
        a5 = (u - (a[k + 1] + u * v - a[3 * k + 1] * b4) * inv(b5)) % p
        a += [a5, (u - a5) % p]
        b.append((v - a5 * (u - a5)) % p)
        if b[-1] == 0:
            return result(3 * k + 6)
        k += 1
    return result(None)


def _check_scan(outputs) -> list[str]:
    (_, rc, data), = outputs
    doc = json.loads(data)
    problems = _digest("scan", data)
    if rc != 0:
        problems.append(f"scan: exit {rc}")
    if doc["summary"]["primes_scanned"] != SCAN_PRIMES or doc["max_index"] != 10_000:
        problems.append("scan: wrong prime range or horizon")
    if doc["summary"]["missing"] or doc["summary"]["extra_survivors"]:
        problems.append("scan: survivors differ from condition pairs")
    return problems


def _check_density(outputs) -> list[str]:
    (_, rc, data), = outputs
    doc = json.loads(data)
    problems = _digest("density", data)
    if rc != 0:
        problems.append(f"density: exit {rc}")
    if (doc["total"], doc["covered"]) != (DENSITY_TOTAL, DENSITY_COVERED):
        problems.append(f"density: covered {doc['covered']} of {doc['total']}")
    return problems


def _check_verify_lemma(outputs) -> list[str]:
    problems = _digest("verify_lemma", b"".join(data for _, _, data in outputs))
    instances = 0
    for call, rc, data in outputs:
        doc = json.loads(data)
        label = "verify-lemma " + " ".join(call["argv"][1:])
        instances += len(doc["instances"])
        expected_rc = 0 if doc["instances"] else 1
        if rc != expected_rc or (doc["instances"] and not doc["pass"]):
            problems.append(f"{label}: exit {rc}, pass {doc['pass']}")
        if not all(inst["pass"] for inst in doc["instances"]):
            problems.append(f"{label}: an instance failed")
    if instances != LEMMA_INSTANCES:
        problems.append(f"verify-lemma: {instances} instances, expected {LEMMA_INSTANCES}")
    return problems


def _check_soundness(results) -> list[str]:
    problems = _digest("soundness", json.dumps(results).encode())
    if len(results) != SOUNDNESS_PAIRS:
        problems.append(f"soundness: {len(results)} pairs, expected {SOUNDNESS_PAIRS}")
    deaths = [r for r in results if r[3] is not None]
    if deaths:
        problems.append(f"soundness: {len(deaths)} condition pairs died before {SOUNDNESS_HORIZON}")
    return problems


def _check_check(outputs) -> list[str]:
    problems = []
    primes = primes_up_to(CHECK_PRIMES_MAX)
    for call, rc, data in outputs:
        doc = json.loads(data)
        u, v = call["inputs"]["u"], call["inputs"]["v"]
        label = f"check ({u}, {v})"
        want = first_witness(u, v, primes)
        w = doc["witness"]
        got = None if w is None else (w["p"], w["case"])
        if (doc["u"], doc["v"]) != (u, v) or doc["covered"] != (want is not None):
            problems.append(f"{label}: covered {doc['covered']}, expected {want is not None}")
        elif rc != (0 if want else 1):
            problems.append(f"{label}: exit {rc}")
        elif got != want or (w and (w["u"], w["v"]) != (u % w["p"], v % w["p"])):
            problems.append(f"{label}: witness {w}, expected (p, case) {want}")
    return problems


def _check_recurrence(outputs) -> list[str]:
    problems = []
    for call, rc, data in outputs:
        doc = json.loads(data)
        u, v, p, n = (call["inputs"][key] for key in ("u", "v", "p", "n"))
        label = f"recurrence ({u}, {v}) mod {p}"
        alphas, betas, status = reference_row(u, v, p, n)
        if (doc["u"], doc["v"], doc["field"], doc["n"]) != (u % p, v % p, f"F_{p}", n):
            problems.append(f"{label}: wrong header")
        elif (doc["alphas"], doc["betas"], doc["status"]) != (alphas, betas, status):
            problems.append(f"{label}: row differs from the reference (status {doc['status']})")
        elif rc != (0 if status == "ok" else 2):
            problems.append(f"{label}: exit {rc} with status {status}")
    return problems


def _check_exact(outputs, command: str) -> list[str]:
    problems = []
    fixed = set(EXACT_FIXED_PAIRS)
    for call, rc, data in outputs:
        doc = json.loads(data)
        u, v, n = (call["inputs"][key] for key in ("u", "v", "n"))
        label = f"{command} ({u}, {v}) n={n}"
        if (u, v) in fixed and n == EXACT_FIXED_TERMS:
            problems += _digest(f"{command} {u} {v}", data)
        if rc != 0:
            problems.append(f"{label}: exit {rc}")
        elif command == "cf" and doc["verdict"] != "AGREE":
            problems.append(f"{label}: verdict {doc['verdict']}")
        elif command == "mu" and doc["degrees"] != list(range(n + 1)):
            problems.append(f"{label}: deg q_k != k")
    return problems


_CHECKERS = {
    "scan": _check_scan,
    "density": _check_density,
    "verify_lemma": _check_verify_lemma,
    "soundness": _check_soundness,
    "check": _check_check,
    "recurrence": _check_recurrence,
    "cf": lambda outputs: _check_exact(outputs, "cf"),
    "mu": lambda outputs: _check_exact(outputs, "mu"),
}


def check_job(name: str, outputs) -> list[str]:
    """Problems with one job execution (empty when it is correct).

    ``outputs`` is a list of (call, exit code, output bytes) for a CLI job,
    where a call holds the argv and the inputs it was built from,
    and the list of (p, u, v, first_beta_zero) results for soundness. A
    malformed document is a problem, not a crash.
    """
    try:
        return _CHECKERS[name](outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{name}: unreadable output ({type(exc).__name__}: {exc})"]


def check_setup(rc: int, data: bytes) -> list[str]:
    problems = _digest("setup", data)
    return problems if rc == 0 else problems + [f"setup: exit {rc}"]

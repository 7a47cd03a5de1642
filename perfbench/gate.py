"""Correctness gate: every artifact the workload writes is checked before it counts.

- Monte-Carlo artifacts must match the stored sha256 for their CLI seed (the
  `# coopsearch <version>` line is left out of the hash), so a change to the
  random stream fails here.
- The `--workers 1` and `--workers nproc` artifacts must be byte-identical.
- Homogeneous sweeps: each mean lies within Z_BOUND standard errors of its
  `analytic` column, which is exact there, and that column equals the oracle.
- Heterogeneous random-start means lie at or below L E(1/v) / (m+1); proportional
  and grouped-1 means, which have exact closed forms, lie within Z_BOUND standard
  errors of them.
- Closed-form tables equal oracles written here, independently of coopsearch,
  to CLOSED_FORM_RTOL.  They are checked by value, not by digest, because a
  different exact method may change the last bits.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from workloads import REGION_LENGTH, Call

Z_BOUND = 5.0
CLOSED_FORM_RTOL = 1e-9
# heterogeneous methods whose mean has a closed form; grouped-1 is the no-overtake
# model itself, so its mean equals the random-start bound rather than sitting below it
EXACT = {"grouped-1": "random", "proportional": "proportional"}


def digest(text: str) -> str:
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("# coopsearch "))
    return hashlib.sha256(body.encode()).hexdigest()


def mean_inverse_speed(law) -> float:
    return math.fsum(p / v for v, p in law)


def speed_sum_inverse_mean(law, n: int) -> float:
    """E[1/(v_1+...+v_n)] = int_0^inf phi(s)^n ds with phi(s) = sum p_k exp(-s v_k).

    With s = u / (n v_min) the integrand is exp(-u) times a mixture of decaying
    exponentials, which Gauss-Laguerre integrates to near machine precision.
    """
    v = np.array([s for s, _ in law])
    p = np.array([q for _, q in law])
    scale = n * v.min()
    u, w = np.polynomial.laguerre.laggauss(150)
    inner = np.exp(-np.outer(u, (v - v.min()) / scale)) @ p
    return float(w @ inner**n) / scale


def semi_equal_second_moment(m: int) -> float:
    """E(l^2) for the halving scheme: 2^(n+1) - m arcs of L/2^n, 2(m - 2^n) of L/2^(n+1)."""
    n = m.bit_length() - 1
    big = REGION_LENGTH / 2**n
    return ((2 ** (n + 1) - m) * big**2 + 2 * (m - 2**n) * (big / 2) ** 2) / m


def closed_form(method: str, m: int, law) -> float:
    L, inv = REGION_LENGTH, mean_inverse_speed(law)
    if method == "equal":
        return L * inv / (2 * m)
    if method == "semi-equal":
        return m / (2 * L) * inv * semi_equal_second_moment(m)
    if method == "random":
        return L * inv / (m + 1)
    if method == "proportional":
        return L / 2 * speed_sum_inverse_mean(law, m)
    raise ValueError(f"no oracle for {method!r}")


def gap_mass(m: int, k: int) -> float:
    """Exact mass of gap-length bin [k, k+1) for m uniform points: P(gap > g) = (1 - g/L)^(m-1)."""
    L = REGION_LENGTH
    return (1 - k / L) ** (m - 1) - (1 - min(k + 1, L) / L) ** (m - 1)


def read_table(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CLOSED_FORM_RTOL * abs(b)


def check_content(call: Call, text: str) -> list[str]:
    """Problems with one artifact's values; empty when it passes."""
    rows = read_table(text)
    if not rows:
        return [f"{call.name}: no rows"]
    if "estimated_mass" in rows[0]:
        return _check_histogram(call, rows)
    problems = []
    law = ((call.law, 1.0),) if isinstance(call.law, float) else call.law
    for row in rows:
        method, m = row["strategy"], int(row["m"])
        where = f"{call.name} {method} m={m}"
        if "expected_time" in row:
            want = closed_form(method, m, law)
            if not _close(float(row["expected_time"]), want):
                problems.append(f"{where}: expected_time {row['expected_time']} != oracle {want!r}")
            continue
        mean, stderr = float(row["mean"]), float(row["stderr"])
        exact = method if isinstance(call.law, float) else EXACT.get(method)
        if exact:
            want = closed_form(exact, m, law)
            if "analytic" in row and not _close(float(row["analytic"]), want):
                problems.append(f"{where}: analytic {row['analytic']} != oracle {want!r}")
            if abs(mean - want) > Z_BOUND * stderr:
                problems.append(f"{where}: mean {mean!r} (stderr {stderr!r}) further than {Z_BOUND} stderr from {want!r}")
        elif mean > closed_form("random", m, law):
            problems.append(f"{where}: mean {mean!r} above random-start bound {closed_form('random', m, law)!r}")
    return problems


def _check_histogram(call: Call, rows: list[dict[str, str]]) -> list[str]:
    problems, totals = [], {}
    for row in rows:
        m, k = int(row["m"]), int(row["bin"])
        totals[m] = totals.get(m, 0.0) + float(row["estimated_mass"])
        if abs(float(row["oracle_mass"]) - gap_mass(m, k)) > 1e-12:
            problems.append(f"{call.name} m={m} bin={k}: oracle_mass {row['oracle_mass']} != {gap_mass(m, k)!r}")
    problems += [f"{call.name} m={m}: estimated masses sum to {t!r}" for m, t in totals.items() if abs(t - 1) > 1e-9]
    return problems


def check_pass(calls: list[Call], outdir: Path, rcs: dict[str, int], references: dict[str, str] | None) -> dict[str, list[str]]:
    """Problems per call for one pass of the workload; a call with none passed."""
    result = {}
    for call in calls:
        path = outdir / f"{call.name}.csv"
        if rcs.get(call.name) != 0 or not path.exists():
            result[call.name] = [f"{call.name}: exit code {rcs.get(call.name)}"]
            continue
        text = path.read_text()
        problems = check_content(call, text)
        if call.digest:
            want = (references or {}).get(call.name)
            if digest(text) != want:
                problems.append(f"{call.name}: sha256 {digest(text)} != reference {want}")
        result[call.name] = problems
    return result


def check_identical(calls: list[Call], dir_a: Path, dir_b: Path) -> dict[str, list[str]]:
    """Calls whose artifacts differ between two passes, e.g. two worker counts."""
    result = {}
    for call in calls:
        a, b = dir_a / f"{call.name}.csv", dir_b / f"{call.name}.csv"
        same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
        result[call.name] = [] if same else [f"{call.name}: {dir_a.name} and {dir_b.name} artifacts differ"]
    return result


class Tally:
    """Operations attempted (one CLI call in one pass) and those that failed the gate."""

    def __init__(self, calls: list[Call], digests: dict[str, str] | None):
        self.calls, self.digests = calls, digests
        self.attempted, self.failed, self.problems = 0, 0, []

    def record(self, outdir: Path, result: dict, same_as: Path | None = None) -> None:
        """Gate one pass; `same_as` names a pass whose artifacts must be byte-identical."""
        found = check_pass(self.calls, outdir, result["rcs"], self.digests)
        if same_as is not None:
            for name, problems in check_identical(self.calls, same_as, outdir).items():
                found[name] += problems
        self.attempted += len(self.calls)
        self.failed += sum(1 for problems in found.values() if problems)
        self.problems += [p for problems in found.values() for p in problems]

"""Symbolic reproduction of the paper's theoretical analysis (Section 3).

Nothing here touches data: these helpers evaluate the running-time formulas
of the paper so that tests and the theory benchmark can verify the claimed
exponents, crossover points and the comparison against prior work
(Amossen-Pagh [11], Lemma 2):

* :func:`lemma3_runtime` — the MMJoin bound
  ``O(|D| + |D|^{2/3} |OUT|^{1/3} max(|D|, |OUT|)^{1/3})`` for ``omega = 2``;
* :func:`lemma2_runtime` — the combinatorial bound ``O(|D| * |OUT|^{1-1/k})``;
* :func:`optimal_thresholds_two_path` — the closed-form minimisers of the
  Section 3.1 cost function (Case 1 and Case 2);
* :func:`star_cost` / :func:`example4_runtime` — the star-query cost formula
  and the ``O(N^{15/8})`` bound of Example 4;
* :func:`amossen_pagh_runtime` — the (corrected-regime) bound of [11];
* :func:`proposition2_latency` / :func:`proposition2_machines` — the BSI
  batching trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.matmul.cost_model import rectangular_cost

# The best known matrix multiplication exponent cited by the paper.
OMEGA_BEST_KNOWN = 2.373


# --------------------------------------------------------------------------- #
# Two-path query
# --------------------------------------------------------------------------- #
def lemma2_runtime(n: float, out: float, k: int = 2) -> float:
    """Combinatorial output-sensitive bound of Lemma 2: ``N * OUT^(1 - 1/k)``."""
    if n <= 0:
        return 0.0
    return n * max(out, 1.0) ** (1.0 - 1.0 / max(k, 1))


def lemma3_runtime(n: float, out: float) -> float:
    """MMJoin bound of Lemma 3 (omega = 2):

    ``|D| + |D|^{2/3} * |OUT|^{1/3} * max(|D|, |OUT|)^{1/3}``.
    """
    if n <= 0:
        return 0.0
    out = max(out, 1.0)
    return n + (n ** (2.0 / 3.0)) * (out ** (1.0 / 3.0)) * (max(n, out) ** (1.0 / 3.0))


def remark_runtime_current_omega(n: float, out: float, omega: float = OMEGA_BEST_KNOWN) -> float:
    """The remark after Lemma 3: for omega = 2.37 the bound becomes
    ``|D|^0.83 * |OUT|^0.589 + |D| * |OUT|^0.41`` (exponents follow the paper).
    """
    out = max(out, 1.0)
    if abs(omega - OMEGA_BEST_KNOWN) < 1e-9:
        return (n ** 0.83) * (out ** 0.589) + n * (out ** 0.41)
    # Generic interpolation between the omega=2 and omega=3 forms.
    return two_path_cost(*optimal_thresholds_two_path(n, out, omega), n=n, out=out, omega=omega)


def two_path_cost(
    delta1: float, delta2: float, n: float, out: float, omega: float = 2.0
) -> float:
    """The Section 3.1 cost function ``f(delta1, delta2)`` (Eq. 1, NR = NS = N).

    ``N + N*delta1 + OUT*delta2 + M(N/delta2, N/delta1, N/delta2)``.
    """
    delta1 = max(delta1, 1.0)
    delta2 = max(delta2, 1.0)
    matrix = rectangular_cost(n / delta2, n / delta1, n / delta2, omega=omega)
    return n + n * delta1 + max(out, 1.0) * delta2 + matrix


def optimal_thresholds_two_path(
    n: float, out: float, omega: float = 2.0
) -> Tuple[float, float]:
    """Closed-form threshold minimisers from the paper's Case 1 / Case 2.

    Case 1 (``OUT <= N``): ``delta1 = OUT^{1/3}``, ``delta2 = N / OUT^{2/3}``.
    Case 2 (``OUT > N``): ``delta1 = delta2 = (2 N^2 / (N + OUT))^{1/3}``.

    The formulas are derived for omega = 2; for other exponents they remain a
    good starting point and are what the practical optimizer's search refines.
    """
    n = max(n, 1.0)
    out = max(out, 1.0)
    if out <= n:
        delta1 = out ** (1.0 / 3.0)
        delta2 = n / (out ** (2.0 / 3.0))
    else:
        delta = (2.0 * n * n / (n + out)) ** (1.0 / 3.0)
        delta1 = delta2 = delta
    return max(delta1, 1.0), max(delta2, 1.0)


def case1_runtime(n: float, out: float) -> float:
    """Case 1 (``OUT <= N``) optimal runtime: ``N + N * OUT^{1/3}``."""
    return n + n * max(out, 1.0) ** (1.0 / 3.0)


def case2_runtime(n: float, out: float) -> float:
    """Case 2 (``OUT > N``) optimal runtime: ``N^{2/3} * OUT^{2/3}``."""
    return (n ** (2.0 / 3.0)) * (max(out, 1.0) ** (2.0 / 3.0))


def amossen_pagh_runtime(n: float, out: float) -> float:
    """The [11] bound ``N^0.862 * OUT^0.408 + N^{2/3} * OUT^{2/3}``.

    The paper shows this analysis is only valid in the regime ``OUT >= N``;
    callers comparing regimes should check :func:`amossen_pagh_valid`.
    """
    out = max(out, 1.0)
    return (n ** 0.862) * (out ** 0.408) + (n ** (2.0 / 3.0)) * (out ** (2.0 / 3.0))


def amossen_pagh_valid(n: float, out: float) -> bool:
    """True when the [11] analysis applies (``OUT >= N``)."""
    return out >= n


def speedup_over_lemma2(n: float, out: float) -> float:
    """Ratio Lemma 2 / Lemma 3 — how much MMJoin wins asymptotically."""
    denom = lemma3_runtime(n, out)
    return lemma2_runtime(n, out) / denom if denom else float("inf")


# --------------------------------------------------------------------------- #
# Star query
# --------------------------------------------------------------------------- #
def star_cost(
    delta1: float, delta2: float, n: float, out: float, k: int, omega: float = 2.0
) -> float:
    """Section 3.2 cost: ``N*delta1^(k-1) + OUT*delta2 + M((N/d2)^ceil(k/2),
    N/d1, (N/d2)^floor(k/2))``."""
    delta1 = max(delta1, 1.0)
    delta2 = max(delta2, 1.0)
    rows = (n / delta2) ** math.ceil(k / 2)
    cols = (n / delta2) ** math.floor(k / 2)
    mids = n / delta1
    return (
        n * delta1 ** (k - 1)
        + max(out, 1.0) * delta2
        + rectangular_cost(rows, mids, cols, omega=omega)
    )


def example4_thresholds(n: float) -> Tuple[float, float]:
    """Example 4 thresholds for k=3, OUT = N^{3/2}: ``delta1 = N^{7/16}``,
    ``delta2 = N^{6/16}``."""
    return n ** (7.0 / 16.0), n ** (6.0 / 16.0)


def example4_runtime(n: float) -> float:
    """Example 4 claimed runtime ``O(N^{15/8})`` for k=3, OUT = N^{3/2}."""
    return n ** (15.0 / 8.0)


# --------------------------------------------------------------------------- #
# Boolean set intersection (Section 3.3)
# --------------------------------------------------------------------------- #
def proposition2_latency(n: float, rate: float) -> float:
    """Average latency of Proposition 2: ``N^{3/5} / B^{2/5}``."""
    return (n ** 0.6) / (max(rate, 1.0) ** 0.4)


def proposition2_machines(n: float, rate: float) -> float:
    """Machines required by Proposition 2: ``(B * N)^{3/5}``."""
    return (max(rate, 1.0) * n) ** 0.6


def naive_bsi_machines(n: float, rate: float) -> float:
    """Machines for the per-query baseline of Example 5: ``B * N``."""
    return max(rate, 1.0) * n


@dataclass(frozen=True)
class RuntimeComparison:
    """Asymptotic comparison of the algorithms for one (N, OUT) point."""

    n: float
    out: float
    full_join: float
    lemma2: float
    lemma3: float
    amossen_pagh: float
    amossen_pagh_valid: bool

    def winner(self) -> str:
        """Name of the asymptotically cheapest algorithm at this point."""
        candidates: Dict[str, float] = {
            "full_join": self.full_join,
            "lemma2": self.lemma2,
            "mmjoin": self.lemma3,
        }
        return min(candidates, key=candidates.get)


def compare_runtimes(n: float, out: float, full_join: float | None = None) -> RuntimeComparison:
    """Evaluate every bound at one (N, OUT) point (used by the theory bench)."""
    return RuntimeComparison(
        n=n,
        out=out,
        full_join=full_join if full_join is not None else n * n,
        lemma2=lemma2_runtime(n, out),
        lemma3=lemma3_runtime(n, out),
        amossen_pagh=amossen_pagh_runtime(n, out),
        amossen_pagh_valid=amossen_pagh_valid(n, out),
    )

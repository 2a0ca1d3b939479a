"""The four aggregation rules: FedAvg, Krum, Multi-Krum (configured as bulyan)
and a squared-distance medoid (geomed), each a selection of rows of a pool's
``[n, P]`` update matrix that ``aggregate`` averages; see select().

All selection rules break ties by lowest input index, and Krum scores sum
squared distances over the n - f - 2 nearest other updates, selected from a
Gram matrix when certified exact, else per pair; see _certified_order().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import params

AGGREGATION_RULES = ("fedavg", "krum", "bulyan", "geomed")
# parameters per column block of the Gram product: an [n, 512] buffer, never [n, P]
GRAM_BLOCK = 512


@dataclass(frozen=True)
class AggregatorConfig:
    rule: str = "fedavg"
    krum_f: int = 2       # assumed bound on adversarial updates
    bulyan_m: int = 5     # size of the averaged low-score subset

    def __post_init__(self):
        if self.rule not in AGGREGATION_RULES:
            raise ValueError(f"unknown aggregation rule {self.rule!r}")
        if self.krum_f < 0:
            raise ValueError("krum_f must be >= 0")
        if self.bulyan_m < 1:
            raise ValueError("bulyan_m must be >= 1")


def min_updates(cfg: AggregatorConfig) -> int:
    """Fewest updates the configured rule accepts per aggregation; select refuses fewer."""
    if cfg.rule in ("krum", "bulyan"):
        return max(cfg.krum_f + 3, cfg.bulyan_m if cfg.rule == "bulyan" else 1)
    return 1


def _sq_dist_matrix(X: np.ndarray) -> np.ndarray:
    n = len(X)
    d = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = params.l2_dist_sq(X[i], X[j])
    return d


def _gamma(k: int) -> float:
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)  # 2^-53: the unit roundoff of float64


def _certified_order(X: np.ndarray, k: int, m: int) -> Optional[List[int]]:
    """Indices of the m lowest scores in stable score order, or None unless certified.

    Score i sums the k smallest squared distances from update i to the others
    (Krum: k = n - f - 2; medoid: k = n - 1), here from the Gram matrix
    G = D D^T of d_i = u_i - u_0 (rows of X), built over GRAM_BLOCK-column blocks, as
    g_ij = (G_ii + G_jj) - 2 G_ij. With r_i = sqrt(G_ii) and the gamma_k of
    Higham (2002, ch. 3), |g_ij - params.l2_dist_sq(u_i, u_j)| is at most
    E_ij = 3 gamma_{P+4} (r_i + r_j)^2 + 16 P 2^-1074: gamma_P for the Gram sums
    (trees of depth <= P), 4u for rounding d and for the add and subtract,
    gamma_{P+2} for the exact path's subtraction and np.dot, and the rest for
    bounding the true norms by r and for underflow. A sum of the k smallest
    moves by at most k max_j E_ij, and each path's sum rounds by at most
    gamma_{k+1} of its size. The order stands only if each chosen interval lies
    strictly below the next chosen one and every unchosen one, so ties,
    near-ties and non-finite input (NaN bounds compare False) return None.
    """
    n, p = X.shape
    gram, buf = np.zeros((n, n)), np.empty((n, min(p, GRAM_BLOCK)))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, p, GRAM_BLOCK):
            block = buf[:, : min(GRAM_BLOCK, p - lo)]
            np.subtract(X[:, lo : lo + GRAM_BLOCK], X[0, lo : lo + GRAM_BLOCK], out=block)
            gram += block @ block.T
        sq = np.diag(gram)
        dist = (sq[:, None] + sq[None, :]) - 2.0 * gram
        np.fill_diagonal(dist, np.inf)
        near = np.sort(dist, axis=1)[:, :k]
        scores = near.sum(axis=1)
        # k max_j E_ij plus both paths' summation error, doubled to cover this arithmetic
        err = 3.0 * _gamma(p + 4) * (np.sqrt(sq) + np.sqrt(sq.max())) ** 2 + 16 * p * 2.0**-1074
        slack = 2.0 * (k * err + 2.0 * _gamma(k + 1) * np.abs(near).sum(axis=1))
        order = np.argsort(scores, kind="stable")
        upper, lower = (scores + slack)[order], (scores - slack)[order]
        certified = (upper[:m] < np.append(lower[1:m], lower[m:].min(initial=np.inf))).all()
    return order[:m].tolist() if certified else None


def krum_scores(X: np.ndarray, f: int) -> List[float]:
    """Score s(i) = sum of squared distances from row i to the n - f - 2 nearest others; the exact path."""
    n = len(X)
    if n < f + 3:
        raise ValueError(f"krum needs at least f + 3 = {f + 3} updates, got {n}")
    dist = _sq_dist_matrix(X)
    return [float(np.sort(np.delete(dist[i], i))[: n - f - 2].sum()) for i in range(n)]


def select(cfg: AggregatorConfig, X: np.ndarray) -> List[int]:
    """The rows of the ``[n, P]`` update matrix ``X`` that ``cfg.rule`` keeps, in averaging order.

    * fedavg keeps every row.
    * bulyan keeps the ``bulyan_m`` rows of lowest Krum score in stable score
      order: Multi-Krum (Blanchard et al., NeurIPS 2017), not the Bulyan of El
      Mhamdi et al. (ICML 2018), which trims coordinate-wise after Krum. A NaN
      score ranks last. krum is Multi-Krum with m = 1.
    * geomed keeps the row minimizing the summed *squared* distance to all
      others, not RFA's geometric median (Pillutla et al.; Weiszfeld
      iterations), which minimizes the summed distance and need not be a row.
      A NaN sum ranks last.
    """
    n, need = len(X), min_updates(cfg)
    if n < need:
        raise ValueError(f"rule {cfg.rule} needs at least {need} updates per aggregation, got {n}")
    if cfg.rule == "fedavg" or n == 1:
        return list(range(n))
    if cfg.rule == "geomed":
        return _certified_order(X, n - 1, 1) or np.argsort(_sq_dist_matrix(X).sum(axis=1), kind="stable")[:1].tolist()
    m = cfg.bulyan_m if cfg.rule == "bulyan" else 1
    chosen = _certified_order(X, n - cfg.krum_f - 2, m)
    return chosen or np.argsort(krum_scores(X, cfg.krum_f), kind="stable")[:m].tolist()


def aggregate(cfg: AggregatorConfig, X: np.ndarray) -> np.ndarray:
    """Mean of the rows of ``X`` that ``select`` keeps, summed as a left fold in their order.

    ``np.add.reduce`` along axis 0 of a C-contiguous ``[k, P]`` array adds
    row after row, a left fold, when P >= 2 (every ModelSpec has P >= 4); for
    P = 1 it sums pairwise. One kept row comes back bit for bit.
    """
    kept = select(cfg, X)
    return np.add.reduce(X if cfg.rule == "fedavg" else X[kept], axis=0) / len(kept)

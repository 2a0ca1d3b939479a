"""Brute-force aggregation references in plain Python, independent of the library path.

Each takes the updates as lists of floats, one list per row. ``bf_mean`` adds
the rows one at a time (a left fold), the order ``rfc_sim.aggregation.aggregate``
promises, not builtin ``sum``, which is a compensated sum from Python 3.12 on.
"""


def bf_sq_dist(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def bf_mean(updates):
    n = len(updates)
    dim = len(updates[0])
    out = []
    for k in range(dim):
        acc = 0.0
        for u in updates:
            acc += u[k]
        out.append(acc / n)
    return out


def bf_krum_scores(updates, f):
    n = len(updates)
    scores = []
    for i in range(n):
        dists = sorted(bf_sq_dist(updates[i], updates[j]) for j in range(n) if j != i)
        scores.append(sum(dists[: n - f - 2]))
    return scores


def bf_kept(rule, updates, f, m):
    """Indices of the rows ``rule`` keeps, in averaging order; ties go to the lowest index."""
    n = len(updates)
    if rule == "fedavg":
        return list(range(n))
    if rule == "geomed":
        totals = [sum(bf_sq_dist(u, v) for v in updates) for u in updates]
        return [totals.index(min(totals))]
    scores = bf_krum_scores(updates, f)
    return sorted(range(n), key=lambda i: (scores[i], i))[: m if rule == "bulyan" else 1]


def bf_krum(updates, f):
    return updates[bf_kept("krum", updates, f, 1)[0]]


def bf_bulyan(updates, f, m):
    return bf_mean([updates[i] for i in bf_kept("bulyan", updates, f, m)])


def bf_geomed(updates):
    return updates[bf_kept("geomed", updates, 0, 1)[0]]

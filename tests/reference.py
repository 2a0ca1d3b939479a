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


def bf_krum(updates, f):
    scores = bf_krum_scores(updates, f)
    return updates[scores.index(min(scores))]


def bf_bulyan(updates, f, m):
    scores = bf_krum_scores(updates, f)
    order = sorted(range(len(updates)), key=lambda i: (scores[i], i))[:m]
    return bf_mean([updates[i] for i in order])


def bf_geomed(updates):
    totals = [sum(bf_sq_dist(u, v) for v in updates) for u in updates]
    return updates[totals.index(min(totals))]

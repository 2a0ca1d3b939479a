"""References independent of the library paths they check.

The brute-force aggregation references are plain Python. Each takes the
updates as lists of floats, one list per row. ``bf_mean`` adds the rows one at
a time (a left fold), the order ``rfc_sim.aggregation.aggregate`` promises,
not builtin ``sum``, which is a compensated sum from Python 3.12 on.

``reference_score`` scores one candidate at a time, as consensus did before it
stacked a round's candidates: one forward pass per parameter vector and a
scalar macro-F1 that loops over the classes in Python.

The other references restate one layer each, one item at a time: scalar
SplitMix64 draws (``uniform``, ``gauss``, ``scalar_normals``,
``scalar_shuffle``), the per-example partition, the per-client forward,
backward and training loop, and the brute-force nonce search. Test modules
import them from here, and never from one another.
"""

import dataclasses
import math

import numpy as np

from rfc_sim import models
from rfc_sim.chain import block_hash
from rfc_sim.data import DataConfig, gen_synthetic
from rfc_sim.models import DivergenceError
from rfc_sim.seeds import Sm64Stream, mix64, tag64


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


def reference_macro_f1(predictions, labels, num_classes):
    """Macro-F1 of one candidate: per class in Python, the class values summed as a left fold from 0.0."""
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(labels, dtype=np.int64)
    tp = np.bincount(true[pred == true], minlength=num_classes).tolist()
    predicted = np.bincount(pred, minlength=num_classes).tolist()
    actual = np.bincount(true, minlength=num_classes).tolist()
    total = 0.0
    for c in range(num_classes):
        precision = tp[c] / predicted[c] if predicted[c] > 0 else 0.0
        recall = tp[c] / actual[c] if actual[c] > 0 else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return total / num_classes


def reference_score(metric_name, spec, p, data):
    """One parameter vector's consensus score on ``data``, from its own forward pass."""
    if metric_name == "accuracy":
        return models.evaluate(spec, p, data)[1]
    if metric_name == "loss":
        return models.evaluate(spec, p, data)[0]
    return reference_macro_f1(models.log_probs(spec, p, data).argmax(axis=1), data.y, spec.num_classes)


def uniform(stream):
    """Uniform double in [0, 1), 53 significant bits, from one word."""
    return (stream.next_u64() >> 11) * 2.0**-53


def gauss(stream):
    """Standard normal via Box-Muller on two words: the reference for seeds.normals."""
    u1 = ((stream.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
    u2 = (stream.next_u64() >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def scalar_normals(seed, n):
    stream = Sm64Stream(seed)
    return np.array([gauss(stream) for _ in range(n)], dtype=np.float64)


def scalar_shuffle(stream, items):
    """Fisher-Yates one rand_below at a time: the reference for the bulk draws."""
    for i in range(len(items) - 1, 0, -1):
        j = stream.rand_below(i + 1)
        items[i], items[j] = items[j], items[i]


def synthetic(num_classes, height, width, per_class, noise_sigma, seed):
    """``gen_synthetic`` of the checked ``DataConfig`` these fields give."""
    cfg = DataConfig(num_classes=num_classes, height=height, width=width, per_class=per_class,
                     noise_sigma=noise_sigma)
    return gen_synthetic(cfg, seed)


def reference_partition(data, num_clients, scheme, val_fraction, test_fraction, seed,
                        shards_per_client):
    """Per-example list version of partition: the row indices of each split, in order."""
    n = len(data)
    order = list(range(n))
    Sm64Stream(mix64(seed, tag64("split"))).shuffle(order)
    n_val, n_test = round(val_fraction * n), round(test_fraction * n)
    rest = order[n_val + n_test :]
    clients = {c: [] for c in range(num_clients)}
    if scheme == "iid":
        for pos, i in enumerate(rest):
            clients[pos % num_clients].append(i)
    else:
        by_label = sorted(range(len(rest)), key=lambda k: (int(data.y[rest[k]]), k))
        n_shards = num_clients * shards_per_client
        shard_order = list(range(n_shards))
        Sm64Stream(mix64(seed, tag64("shards"))).shuffle(shard_order)
        base, extra = divmod(len(rest), n_shards)
        bounds, start = [], 0
        for s in range(n_shards):
            stop = start + base + (1 if s < extra else 0)
            bounds.append((start, stop))
            start = stop
        for c in range(num_clients):
            for shard in shard_order[c * shards_per_client : (c + 1) * shards_per_client]:
                lo, hi = bounds[shard]
                clients[c].extend(rest[k] for k in by_label[lo:hi])
    return order[:n_val], order[n_val : n_val + n_test], clients


def forward_loss_grad(spec, p, batch):
    """Mean cross-entropy and its gradient on one batch, as training computes them, and the count of rows
    whose first class of largest log-probability is the label."""
    models._check(spec, p, batch.x)
    grad = np.empty_like(p)
    at = models._label_offsets(batch.y.shape, spec.num_classes) + batch.y
    with np.errstate(over="ignore", invalid="ignore"):
        sums = models._loss_grad(spec, models._unpack(spec, p), batch.x, at, models._unpack(spec, grad))
    hits = models.log_probs(spec, p, batch).argmax(axis=-1) == batch.y
    return float(-(sums / len(batch))), grad, int(hits.sum())


def reference_loss_grad(spec, p, x, y):
    """One client's 2-D forward and backward pass, as the trainer computed it per client."""
    n = x.shape[0]
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "linear":
            logits = x @ p[: d * c].reshape(d, c) + p[d * c :]
        else:
            w1 = p[: d * h].reshape(d, h)
            b1 = p[d * h : d * h + h]
            w2 = p[d * h + h : d * h + h + h * c].reshape(h, c)
            pre = x @ w1 + b1
            hidden = np.maximum(pre, 0.0)
            logits = hidden @ w2 + p[d * h + h + h * c :]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        loss = float(-logp[np.arange(n), y].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grad = np.empty_like(p)
    if spec.kind == "linear":
        grad[: d * c] = (x.T @ dlogits).reshape(-1)
        grad[d * c :] = dlogits.sum(axis=0)
    else:
        dpre = (dlogits @ w2.T) * (pre > 0.0)
        o = 0
        grad[o : o + d * h] = (x.T @ dpre).reshape(-1); o += d * h
        grad[o : o + h] = dpre.sum(axis=0); o += h
        grad[o : o + h * c] = (hidden.T @ dlogits).reshape(-1); o += h * c
        grad[o:] = dlogits.sum(axis=0)
    return loss, grad


def reference_log_softmax(logits):
    """Log-softmax with its row max as the class-axis reduce, the path the column fold replaced."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def reference_train_local(spec, start, data, opt, seed):
    """The per-client training loop: scalar Fisher-Yates orders, one batch at a time."""
    x, y = data.x, data.y
    n = len(data)
    p = np.array(start, dtype=np.float64, copy=True)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    t = 0
    for epoch in range(opt.local_epochs):
        stream = Sm64Stream(mix64(seed, epoch))
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = stream.rand_below(i + 1)
            order[i], order[j] = order[j], order[i]
        idx = np.array(order, dtype=np.int64)
        for lo in range(0, n, opt.batch_size):
            rows = idx[lo : lo + opt.batch_size]
            loss, grad = reference_loss_grad(spec, p, x[rows], y[rows])
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch offset {lo}")
            if opt.kind == "sgd":
                p -= opt.learning_rate * grad
            else:
                t += 1
                m = opt.adam_beta1 * m + (1.0 - opt.adam_beta1) * grad
                v = opt.adam_beta2 * v + (1.0 - opt.adam_beta2) * grad * grad
                m_hat = m / (1.0 - opt.adam_beta1**t)
                v_hat = v / (1.0 - opt.adam_beta2**t)
                p -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.adam_epsilon)
            if not np.all(np.isfinite(p)):
                raise DivergenceError(f"parameters overflowed at epoch {epoch}, batch offset {lo}")
    return p


def first_nonce_by_brute_force(draft, difficulty):
    """The smallest nonce whose full-preimage hash, read as an integer, is below 2**(256 - d)."""
    for nonce in range(1 << 20):
        h = block_hash(dataclasses.replace(draft, nonce=nonce))
        if int.from_bytes(h, "big") < 1 << (256 - difficulty):
            return nonce, h
    raise AssertionError("no nonce below 2**20")

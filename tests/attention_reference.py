"""The attention graph ``autodiff.self_attention`` is held to, bit for bit.

``packed_attention`` is one node for the attention of a pack over given
queries, keys and values, fed by three ``linear`` projections (the
queries' through a ``take`` of the query rows). It keeps the projections
and hands each of q, k and v its whole gradient, so in that graph the
take scatters the residual's and the queries' gradient pieces, already
summed, into the layer input before the key and value pieces arrive.
"""

import numpy as np

from varnamer import autodiff as ad


def query_groups(offsets, rows):
    """Per sequence, the positions in ``rows`` of the rows that lie in it."""
    owner = np.searchsorted(offsets, rows, side="right") - 1
    return [np.flatnonzero(owner == i) for i in range(len(offsets) - 1)]


def packed_attention(q, k, v, offsets, heads, queries=None, keeps=None, scale=None):
    """Multi-head attention within each sequence of a pack. ``k`` and ``v``
    are ``(N, d)`` row blocks, sequence ``i`` owning rows
    ``offsets[i]:offsets[i + 1]``; ``q`` has their layout when ``queries``
    is None, otherwise ``queries[i]`` lists the rows of ``q`` in sequence
    ``i``. ``keeps[i]`` drops sequence ``i``'s probabilities with the mask
    ``keeps[i] * scale``. Runs the per-sequence kernels of ``autodiff``."""
    (qd, qn), (kd, kn), (vd, vn) = ad._split(q), ad._split(k), ad._split(v)
    out_data = np.zeros_like(qd)
    saved = []
    for i in range(len(offsets) - 1):
        keys = slice(int(offsets[i]), int(offsets[i + 1]))
        mine = keys if queries is None else queries[i]
        qh = ad._heads(qd[mine], heads)
        if qh.shape[1] == 0:
            continue
        kh, vh = ad._heads(kd[keys], heads), ad._heads(vd[keys], heads)
        keep = None if keeps is None else keeps[i]
        context, top, total = ad._attend(qh, kh, vh, keep, scale)
        out_data[mine] = ad._merged(context)
        saved.append((mine, keys, qh, kh, vh, top, total, keep))

    def backward(g):
        grads = [np.zeros(a.shape, dtype=g.dtype) for a in (qd, kd, vd)]
        for mine, keys, qh, kh, vh, top, total, keep in saved:
            pieces = ad._attend_backward(ad._heads(g[mine], heads), qh, kh, vh,
                                         top, total, keep, scale)
            for grad, own, piece in zip(grads, (mine, keys, keys), pieces):
                grad[own] = ad._merged(piece)
        for node, grad in zip((qn, kn, vn), grads):
            node.accumulate(grad, owned=True)

    return ad._node(out_data, (qn, kn, vn), backward)


def attention_block(x, wq, bq, wk, bk, wv, bv, offsets, heads, rows=None, keeps=None,
                    scale=None):
    """The residual (``x``, or its ``rows`` through a ``take``) and the
    attention of the three projections, as ``take``, ``linear`` and
    ``packed_attention`` nodes; the caller adds them, residual first."""
    xq = x if rows is None else ad.take(x, rows)
    q, k, v = ad.linear(xq, wq, bq), ad.linear(x, wk, bk), ad.linear(x, wv, bv)
    queries = None if rows is None else query_groups(offsets, rows)
    return xq, packed_attention(q, k, v, offsets, heads, queries, keeps, scale)

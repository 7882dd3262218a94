"""The best exact drop probability of SMW over a sample of scaling
vectors, kept for the tests as a finite-K reference: "the best SMW at
this K" for a fixed alpha sample.

Alphas with the same dispatch table and the same start state give the
same chain, so each distinct (source-row bytes, start row) key is solved
once, as tuner._evaluate keys its walks.  _argmax_table holds candidates
x states x neighbours floats, so the candidates go a chunk at a time.
"""

import numpy as np

from smwsim.chain import StateSpace, stationary_drop_probability
from smwsim.policies import SmwPolicy, _argmax_table, smw_rows
from smwsim.sim import proportional_init

CHUNK_ENTRIES = 1 << 20  # most candidate x state x node entries at once


def table_keys(net, alphas, K) -> dict:
    """Index of the first alpha (a row of alphas) with each distinct
    (source-row bytes, start row) key at fleet size K."""
    states = StateSpace.enumerate(net.n_supply, K).states
    chunk = max(1, CHUNK_ENTRIES // states.size)
    keys = {}
    for at in range(0, len(alphas), chunk):
        alpha = alphas[at:at + chunk]
        srcs = np.hstack([_argmax_table(states, *rows)[0][0]
                          for rows in smw_rows(net, alpha)])
        starts = np.abs(states - proportional_init(alpha, K)[:, None])\
            .sum(axis=2).argmin(axis=1).tolist()
        for c, (row, start) in enumerate(zip(srcs, starts)):
            keys.setdefault((row.tobytes(), start), at + c)
    return keys


def best_smw(net, alphas, K):
    """Least exact drop probability of SmwPolicy over the alphas at fleet
    size K, the alpha that gives it (the first such row) and the number of
    distinct keys solved."""
    keys = table_keys(net, alphas, K)
    p = {c: stationary_drop_probability(net, SmwPolicy(net, alphas[c]), K)
         .drop_probability for c in keys.values()}
    best = min(p, key=lambda c: (p[c], c))
    return p[best], alphas[best], len(keys)

"""The staleness norm after each step of a decode trace, rebuilt from the
step's reuse decisions, for the tests that digest a trace."""

from __future__ import annotations

import numpy as np

from reuselab.reuse import staleness_norm


def staleness_norms(records):
    """Per record, the norm of the whole staleness matrix after its step.

    The counters are rebuilt from the decisions alone: a reused row ages by
    one, any other drops to 0, and every row drops to 0 at a new block.
    """
    counters = None
    for rec in records:
        if rec.step == 0:
            counters = np.zeros((len(rec.decisions), rec.input_tokens.size),
                                dtype=np.int64)
        for dec in rec.decisions:
            aged = counters[dec.layer][dec.reused] + 1
            counters[dec.layer] = 0
            counters[dec.layer][dec.reused] = aged
        yield staleness_norm(counters)

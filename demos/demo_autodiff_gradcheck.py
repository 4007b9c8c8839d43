#!/usr/bin/env python3
"""Walk through the tape autodiff and verify the full cascade gradient.

Builds the fixed toy instance (3 sentences, 12 tokens, 2 gold mentions),
runs the forward pass on a tape, backpropagates the multi-level loss, and
compares every analytic gradient against central finite differences.
"""

import time

import numpy as np

from spancascade import autodiff as ad
from spancascade import model, synth, training
from spancascade.corpus import build_candidates


def main():
    # 1. the tape in isolation: a two-layer ReLU net and a score head
    tape = ad.Tape()
    rng = np.random.default_rng(0)
    net = ad.FfnnParams(
        V=tape.variable(rng.normal(size=(4, 3)) * 0.5, "net.V"),
        a=tape.variable(np.zeros(4), "net.a"),
        U=tape.variable(rng.normal(size=(4, 4)) * 0.5, "net.U"),
        b=tape.variable(np.zeros(4), "net.b"),
    )
    head = ad.LinearParams(w=tape.variable(rng.normal(size=4), "head.w"),
                           z=tape.variable(np.zeros(()), "head.z"))
    x = tape.constant(np.array([[0.3, -1.2, 0.8]]))  # one input row
    scores = ad.linear(ad.ffnn(x, net), head)        # one score per row
    print(f"toy ffnn+linear score: {float(scores.value[0]):+.6f}")
    # the log-sum-exp of a single score is that score: a scalar root
    grads = tape.backward(ad.logsumexp(scores))
    print(f"gradient w.r.t. head.w: {grads['head.w']}")

    # 2. the full cascade on the fixed toy instance
    example, table = synth.gradcheck_instance(embed_dim=8, seed=13)
    config = training.TrainConfig(hidden_width=8, dropout=0.0)
    arch = config.arch(table.dimension)
    params = model.CascadeParams.initialize(arch, 0)
    cands = build_candidates(example, arch.span_limit)
    enc = model.encode_example(example, cands, table, arch)
    print(f"\ntoy instance: {enc.n_spans} spans, {enc.n_unique} unique "
          f"candidates, gold mentions at spans "
          f"{[int(i) for i in enc.gold_spans]}")

    def loss_fn(arrays):
        t = ad.Tape()
        bound = model.CascadeParams.from_arrays(arch, 0, arrays).bind(t)
        scores = model.forward_cascade(t, bound, enc)
        return training.multi_loss(scores, enc.gold_spans, enc.gold_uniques,
                                   config.weights)

    n_coords = sum(a.size for _, a in params.named_arrays())
    print(f"checking {n_coords} scalar parameters against central "
          f"differences (epsilon 1e-5)...")
    t0 = time.perf_counter()
    result = ad.finite_difference_check(loss_fn, params.as_dict(), 1e-5)
    dt = time.perf_counter() - t0
    print(f"max relative error {result.max_rel_error:.2e} at "
          f"{result.worst_param}{list(result.worst_index)} ({dt:.1f}s)")
    assert result.max_rel_error < 1e-3


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""From raw text to a prediction: the full data path, step by step.

Shows tokenization with sentence boundaries, truncation caps, span
candidate enumeration, unique-candidate grouping with distant-supervision
gold marking, encoding against an embedding table, and scoring with a
fresh (untrained) cascade.
"""

import numpy as np

from spancascade import model, synth, training
from spancascade.corpus import build_candidates, tokenize, truncate
from spancascade.evaluation import normalize_answer, rank_candidates


def main():
    text = ("Lee Krasner married Jackson Pollock in 1945 . "
            "Pollock lived in Springs . "
            "Krasner kept painting after Pollock died .")
    doc = truncate(tokenize(text))
    print(f"tokens ({len(doc.tokens)}): {doc.tokens}")
    print(f"sentence ranges: {doc.sentences}")

    from spancascade.corpus import QAExample

    example = QAExample(
        "demo", tokenize("Which artist married Lee Krasner ?").tokens,
        [doc], ["Jackson Pollock", "Pollock", "Pollock, Jackson"])
    cands = build_candidates(example, span_limit=5)
    print(f"\n{len(cands.spans)} candidate spans, "
          f"{len(cands.surfaces)} unique candidates")
    mention_counts = np.bincount(cands.spans.unique)
    for uid in cands.gold_unique_ids:
        print(f"  gold: {cands.surfaces[uid]!r} with "
              f"{mention_counts[uid]} mention(s)")
    print(f"normalized answer forms: "
          f"{sorted({normalize_answer(a) for a in example.answers})}")

    # an embedding table over the demo vocabulary (unit random vectors)
    vocab = sorted({t.lower() for t in doc.tokens + example.question})
    from spancascade.embeddings import random_table

    table = random_table(vocab, 16, seed=3)
    arch = training.TrainConfig(hidden_width=16).arch(table.dimension)
    enc = model.encode_example(example, cands, table, arch)
    params = model.CascadeParams.initialize(arch, 0)
    stats = model.ForwardStats()
    scores = model.score_example(params, enc, stats=stats)
    print(f"\nforward pass: {stats.attention_calls} attention computations "
          f"(= sentence count), {stats.macs} multiply-accumulates")
    for level, phi in scores.values().active():
        p = np.exp(phi - np.max(phi))  # each level's softmax
        p /= p.sum()
        print(f"  {level.name}: distribution over {p.shape[0]} candidates, "
              f"sum = {p.sum():.15f}")
    scored = model.scored_example(params, example, enc)
    best = rank_candidates(scored)[0]
    print(f"\nuntrained top-ranked answer: {scored.candidates[best]!r} "
          f"(score {scored.scores[best]:+.4f}, "
          f"{scored.mention_counts[best]} mentions); gold ids "
          f"{scored.gold_ids}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Why aggregating mentions at the representation level matters.

In this corpus every candidate is mentioned twice and every mention
co-occurs with exactly one question cue, so no single mention identifies
the answer: only the candidate whose mentions jointly cover both question
cues is correct. A model that scores mentions independently and takes the
best one (the no-aggregation ablation) is blind to coverage; the full
cascade sums mention representations per candidate and can see it.
"""

import time

from spancascade import evaluation, model, synth, training


def run(name, config, train_ex, heldout, table):
    t0 = time.perf_counter()
    result = training.train(train_ex, config, table)
    report = evaluation.evaluate(
        model.make_scorer(result.params, table), heldout)
    print(f"{name:>18}: held-out EM {report.em:.2f} "
          f"({time.perf_counter() - t0:.0f}s)")
    return report.em


def main():
    train_ex, heldout = synth.make_multimention_corpus(60, 50, seed=23)
    table = synth.make_table(embed_dim=16, seed=7)
    sample = train_ex[0]
    print(f"sample question: {' '.join(sample.question)}")
    print(f"sample document: {' '.join(sample.documents[0].tokens)}")
    print(f"sample answer:   {sample.answers[0]}\n")

    full = run(
        "full cascade",
        training.TrainConfig(
            epochs=150, seed=0, dropout=0.1, hidden_width=32,
            weights=training.LossWeights(0.1, 0.1, 0.2, 0.6)),
        train_ex, heldout, table)
    no_agg = run(
        "no aggregation",
        training.TrainConfig(ablation="level12_only", epochs=150, seed=0,
                             dropout=0.1, hidden_width=32),
        train_ex, heldout, table)
    print(f"\nheld-out gap (full - no aggregation): {full - no_agg:+.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Train the cascade on the synthetic cue co-occurrence corpus.

The answer is always the entity sharing a sentence with the question's
cue word, mentioned twice per document. The full cascade masters the
training set and transfers to held-out pairings; the question+span-only
ablation cannot see co-occurrence and stays far behind on held-out data.
"""

import time

from spancascade import evaluation, model, synth, training


def run(name, config, train_ex, heldout, table):
    t0 = time.perf_counter()
    result = training.train(train_ex, config, table)
    scorer = model.make_scorer(result.params, table)
    report = evaluation.evaluate(scorer, heldout)
    print(f"{name:>16}: train EM {result.metrics[-1].train_em:.2f}, "
          f"held-out EM {report.em:.2f} "
          f"({time.perf_counter() - t0:.0f}s)")
    return report.em


def main():
    train_ex, heldout = synth.make_overfit_corpus(50, 50, seed=11)
    table = synth.make_table(embed_dim=16, seed=7)
    print(f"{len(train_ex)} training pairs, {len(heldout)} held-out pairs")
    sample = train_ex[0]
    print(f"sample question: {' '.join(sample.question)}")
    print(f"sample answer:   {sample.answers[0]}\n")

    full = run("full cascade",
               training.TrainConfig(epochs=40, seed=0, dropout=0.1,
                                    hidden_width=32),
               train_ex, heldout, table)
    level1 = run("question+span",
                 training.TrainConfig(ablation="level1_qs_only", epochs=40,
                                      seed=0, dropout=0.1, hidden_width=32),
                 train_ex, heldout, table)
    print(f"\nheld-out gap (full - question+span): {full - level1:+.2f}")


if __name__ == "__main__":
    main()

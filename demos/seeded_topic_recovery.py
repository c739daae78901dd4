"""
Seeded topic recovery on a planted corpus
=========================================

Builds a synthetic corpus where every document is drawn from one of three
known word distributions, seeds one topic per theme with a few characteristic
words, trains the collapsed Gibbs sampler, and checks how well the dominant
topic of each document recovers the planted theme.
"""

import numpy as np

from tagtopics import (
    SeedSpec,
    TokenizedDoc,
    TrainSettings,
    classify_all,
    doc_topic_distribution,
    evaluate,
    train,
)

rng = np.random.default_rng(2024)

# Three themes over a shared 60-word vocabulary. Each theme concentrates on
# its own third of the vocabulary but leaks a little everywhere, which is
# what makes the recovery nontrivial.
V = 60
vocab = [f"word{i:02d}" for i in range(V)]
themes = ["markets", "weather", "transit"]
word_dists = []
for t in range(3):
    weights = np.full(V, 0.2)
    weights[t * 20:(t + 1) * 20] = 2.0
    word_dists.append(rng.dirichlet(weights))

docs = []
planted = {}
for d in range(300):
    theme = d % 3
    words = rng.choice(V, size=12, p=word_dists[theme])
    docs.append(TokenizedDoc(f"doc{d:03d}", tuple(vocab[w] for w in words)))
    planted[f"doc{d:03d}"] = themes[theme]

# Seed each topic with the four words its theme favors most. Two extra
# unseeded topics mop up whatever the seeded ones cannot explain.
seeds = {
    themes[t]: [vocab[w] for w in np.argsort(-word_dists[t])[:4]]
    for t in range(3)
}
for name, words in seeds.items():
    print(f"seeds[{name}] = {words}")

# alpha 0.01, beta 0.0001 and mu 0.5 are TrainSettings' defaults
spec = SeedSpec.from_mapping(seeds, unseeded=2)
model = train(docs, spec, TrainSettings(iterations=500, rng_seed=7))
print(f"\ntrained: {len(model.doc_ids)} docs, |V|={model.vocab_size}, "
      f"{model.num_topics} topics")

# theta for one document: posterior mean mixture over the five topics.
theta = doc_topic_distribution(model, 0)
print("theta(doc000) =", np.array2string(theta, precision=3))

# Classification takes the dominant topic; documents won by an unseeded
# topic come back as "unassigned" and show up as an extra predicted label.
labels = classify_all(model, np.random.default_rng(1))
report = evaluate(labels, planted)

print(f"\naccuracy {report.accuracy:.3f}, macro-F1 {report.macro.f1:.3f}")
print("confusion matrix (rows gold, columns predicted)")
header = " ".join(f"{name:>10s}" for name in report.labels)
print(f"{'':10s} {header}")
for name, row in zip(report.labels, report.matrix):
    cells = " ".join(f"{c:10d}" for c in row)
    print(f"{name:>10s} {cells}")

"""The randomized 4/5 ceiling on two-colorable paths.

A fixed distribution over reveal orders of one path forces every
deterministic strategy below (4/5) a + O(1) colored edges in expectation;
the best deterministic response to a known distribution bounds every
randomized strategy, so nothing beats 4/5 - which the biased pair strategy
attains.
"""

import random

from palette import engine
from palette.adversaries import yao_instance, yao_sample
from palette.harness import yao_colored_bound, yao_experiment

B = 6
a = 3**B

print(f"path with a-2 = {a - 2} edges; offline optimum colors all of them")
print(f"deterministic ceiling: 4a/5 + 1/(5*2^b) + 1 = {float(yao_colored_bound(B)):.3f}\n")

print("one sampled instance per round count L:")
for L in range(B):
    inst = yao_instance(B, L)
    ff = engine.run("ff", inst.reveal_sequence()).colored_count
    nf = engine.run("nf", inst.reveal_sequence()).colored_count
    print(f"  L={L}: round sizes {[len(s) for s in inst.subphases]}, "
          f"ff colored {ff}, nf colored {nf}")

print("\nsampling the full distribution (100000 draws):")
for report in yao_experiment(B, trials=100_000, seed=7):
    print(f"  {report.algorithm}: mean colored {report.colored_mean:.2f} "
          f"+- {report.colored_stderr:.3f} "
          f"(ratio {float(report.ratio):.4f}, ceiling ratio {float(report.bound):.4f})")

print("\na single fresh sample, for flavor:")
inst = yao_sample(B, random.Random(1))
print(f"  drew L={inst.L}; first ten reveals: {inst.order[:10]}")

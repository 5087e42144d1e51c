"""Tour of the two-colorable path results.

Plays each path strategy against its worst-case reveal order, compares the
empirical ratios with the closed-form ceilings, and certifies the matching
floor of the biased pair strategy with the exact charging ledger.
"""

from fractions import Fraction

from palette import engine
from palette.adversaries import (
    det_path_killer,
    nf_path_killer,
    rp_strategy_mod3,
    rp_strategy_oddeven,
)
from palette.charging import rp_competitive_ratio, rp_path_charge
from palette.exact import PHI_OVER_SQRT5

M = 1000

print("== next-fit on the odd-then-even order ==")
trace = engine.run("nf", nf_path_killer(M))
total = 2 * M + 1
print(f"colored {trace.colored_count} of {total} "
      f"(ratio {trace.colored_count / total:.5f}; ceiling (m+1)/(2m+1) -> 1/2)")

print("\n== any deterministic strategy on the fragment-chaining order ==")
for alg in ("ff", "nf"):
    trace = engine.run(alg, det_path_killer(M, alg))
    print(f"{alg}: colored {trace.colored_count} of {3 * M - 1} "
          f"(ceiling 2n/(3n-1) -> 2/3)")

print("\n== the biased pair strategy: both adversarial orders ==")
p = 0.72360679  # the optimal bias, to eight digits
m, trials = 3001, 20_000
for label, seq in (("every-third", rp_strategy_mod3(m)),
                   ("odd-then-even", rp_strategy_oddeven(m))):
    counts = engine.rp_path_colored_counts(seq.edges, p, trials, seed=42)
    print(f"{label}: mean colored {counts.mean():.1f} of {m} "
          f"over {trials} trials (both formulas give 2401.0 at the optimum)")

print("\n== the matching floor, certified exactly ==")
p_exact = PHI_OVER_SQRT5
print(f"ratio at the optimal bias: {rp_competitive_ratio(p_exact)} (exactly 4/5)")
for label, seq in (("every-third", rp_strategy_mod3(28)),
                   ("odd-then-even", rp_strategy_oddeven(31))):
    report = rp_path_charge(seq, p_exact, C=Fraction(4, 5))
    print(f"{label}: ledger passed={report.passed}, min margin {report.min_margin} "
          f"(zero margin = the instance is tight)")

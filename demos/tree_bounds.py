"""Tour of the tree results.

Ceilings: star chains cap deterministic-or-fair strategies at (k-1)/k and
path-then-stars caps deterministic-or-fair strategies at k/(k+1).  Floors:
the charging ledgers certify first-fit at (k-1)/k and any fair strategy at
the square-root floor, which the star-bunch family shows is exactly right
for next-fit.
"""

from palette import engine
from palette.adversaries import nf_tree_worstcase, path_then_stars, star_chain
from palette.charging import fair_ratio, fair_tree_charge
from palette.harness import verify_ff_trees, verify_fair_trees
from palette.oracle import opt_tree

print("== star chain: ceiling (k-1)/k for deterministic or fair strategies ==")
k, N = 5, 200
trace = engine.run("ff", star_chain(k, N, "ff"))
opt = opt_tree(trace.graph, k).count
print(f"first-fit: {trace.colored_count} of opt {opt} "
      f"(ratio {trace.colored_count / opt:.4f}, ceiling {(k - 1) / k})")

print("\n== path then stars: ceiling k/(k+1) for every strategy ==")
for k in (2, 3):
    script = path_then_stars(k, 600, "ff")
    trace = engine.run("ff", script)
    opt = opt_tree(trace.graph, k).count
    print(f"k={k}: stars revealed={script.stars_revealed}, "
          f"ratio {trace.colored_count / opt:.4f} vs ceiling {k / (k + 1):.4f}")

print("\n== first-fit floor (k-1)/k, certified on random trees ==")
print(verify_ff_trees(300, 14, 3, seed=11).summary())

print("\n== fair floor (2 sqrt(k) - 2)/(2 sqrt(k) - 1), certified on random trees ==")
print(verify_fair_trees(300, 12, 4, seed=12).summary())

print("\n== the star-bunch family meets the fair floor exactly (k = 4) ==")
trace = engine.run("nf", nf_tree_worstcase(4, 10))
witness = opt_tree(trace.graph, 4)
report = fair_tree_charge(trace, witness)
print(f"next-fit colored {trace.colored_count}, rejected {trace.rejected_count}, "
      f"opt {witness.count}")
print(f"floor C = {fair_ratio(4)}; charge min margin = {report.min_margin} "
      f"(zero: the family is tight)")

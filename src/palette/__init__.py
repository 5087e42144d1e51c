"""Online dual edge coloring: color as many edges as possible with k colors
under irrevocable online decisions.

The package bundles the game engine with the built-in strategies (first-fit,
next-fit, and the biased random pair strategy for two colors), the
adversarial reveal orders that pin each strategy to its ceiling, exact
offline optimum oracles, and charging-ledger verifiers that certify the
matching floors on concrete runs.
"""

from .adversaries import (
    BunchPlan,
    RevealSequence,
    YaoInstance,
    bunch_plan,
    det_path_killer,
    equivalent,
    nextfit_order,
    nf_path_killer,
    nf_tree_worstcase,
    nf_tree_worstcase_rounded,
    path_then_stars,
    rp_strategy_mod3,
    rp_strategy_oddeven,
    star_chain,
    yao_instance,
    yao_sample,
)
from .charging import (
    ChargingError,
    FairTreeCertificate,
    FFTreeCertificate,
    VerdictReport,
    critical_edges,
    fair_ratio,
    fair_tree_charge,
    ff_tree_charge,
    rp_competitive_ratio,
    rp_path_charge,
)
from .engine import (
    FirstFit,
    NextFit,
    RandomParity,
    Trace,
    audit_fair,
    make_algorithm,
    run,
)
from .exact import PHI_OVER_SQRT5, Sqrt5
from .graph import Graph, GraphError, PartialColoring, build_graph
from .oracle import OptWitness, audit_witness, opt_bruteforce, opt_path, opt_tree

__version__ = "0.1.0"

__all__ = [
    "BunchPlan",
    "ChargingError",
    "FFTreeCertificate",
    "FairTreeCertificate",
    "FirstFit",
    "Graph",
    "GraphError",
    "NextFit",
    "OptWitness",
    "PHI_OVER_SQRT5",
    "PartialColoring",
    "RandomParity",
    "RevealSequence",
    "Sqrt5",
    "Trace",
    "VerdictReport",
    "YaoInstance",
    "audit_fair",
    "audit_witness",
    "build_graph",
    "bunch_plan",
    "critical_edges",
    "det_path_killer",
    "equivalent",
    "fair_ratio",
    "fair_tree_charge",
    "ff_tree_charge",
    "make_algorithm",
    "nextfit_order",
    "nf_path_killer",
    "nf_tree_worstcase",
    "nf_tree_worstcase_rounded",
    "opt_bruteforce",
    "opt_path",
    "opt_tree",
    "path_then_stars",
    "rp_competitive_ratio",
    "rp_path_charge",
    "rp_strategy_mod3",
    "rp_strategy_oddeven",
    "run",
    "star_chain",
    "yao_instance",
    "yao_sample",
]

"""Online dual edge coloring: color as many edges as possible with k colors
under irrevocable online decisions.

Each layer is one module; import a name from the module that defines it.
- `palette.graph`: graph and coloring state, and the edge-list format.
- `palette.engine`: the game loop, the built-in strategies and the fairness audit.
- `palette.adversaries`: the reveal orders and adaptive scripts behind the ceilings.
- `palette.oracle`: offline optimum oracles and their witness colorings.
- `palette.exact`: exact arithmetic in a + b*sqrt(d) for the ledgers.
- `palette.charging`: the charging ledgers that certify the floors.
- `palette.harness`: the construction registry, experiments and sweeps.
- `palette.cli`: the `palette` command.
"""

__version__ = "0.1.0"

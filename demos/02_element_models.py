#!/usr/bin/env python3
"""Tour of the five built-in element models.

For each element: state-space size after vanishing-marking elimination, the
exact steady-state unavailability at the default intensities, and the yearly
downtime it implies.  The radio unit also gets checked against its analytic
closed form (a single token cycling through independent failure modes).
"""

from edgeavail import (builtin_models, default_table, eliminate_vanishing,
                       explore, steady_state_gth, to_ctmc, unavailability)

HOURS_PER_YEAR = 8760

table = default_table()
print(f"{'element':10s} {'states':>7s} {'tangible':>9s} {'unavailability':>15s} "
      f"{'downtime/year':>14s}")
for name, model in builtin_models(table).items():
    graph = explore(model)
    chain = to_ctmc(eliminate_vanishing(graph), "up")
    u = unavailability(chain, steady_state_gth(chain))
    downtime = u * HOURS_PER_YEAR
    print(f"{name:10s} {graph.n_states:7d} {chain.n_states:9d} {u:15.6e} "
          f"{downtime:11.2f} h")

# The radio unit admits a hand-checkable closed form: one working token,
# three independent fail/repair cycles, U = 1 - 1 / (1 + sum lambda_i/mu_i).
ratio = (table.lambda_RH / table.mu_RH + table.lambda_A / table.mu_A
         + table.lambda_FW / table.mu_FW)
print(f"\nradio-unit analytic check: {1 - 1 / (1 + ratio):.6e}")

# The cluster is the interesting one: M instances, K required.  Watch the
# spare instance buy roughly two orders of magnitude.
from edgeavail import build_cluster  # noqa: E402

for k in (10, 9, 8):
    model = build_cluster(table.with_overrides(M=10, K=k))
    chain = to_ctmc(eliminate_vanishing(explore(model)), "up")
    u = unavailability(chain, steady_state_gth(chain))
    print(f"cluster (M,K)=(10,{k}): U = {u:.6e}")

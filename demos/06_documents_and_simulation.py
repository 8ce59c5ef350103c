#!/usr/bin/env python3
"""Model documents and the Monte-Carlo cross-check.

Loads a shipped ``.san`` document, perturbs a parameter, and validates the
exact solver against independent replications of the event-driven simulator.
Equivalent CLI: ``edgeavail solve`` / ``edgeavail simulate``.
"""

import dataclasses
import pathlib

from edgeavail import (eliminate_vanishing, explore, parse_model,
                       serialize_model, simulate, simulate_replicated,
                       steady_state_gth, to_ctmc, unavailability)

elements_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "edgeavail" / "elements"
text = (elements_dir / "du.san").read_text()
model = parse_model(text)
print(f"loaded distributed-unit model: {len(model.places)} places, "
      f"{len(model.activities)} activities")
assert serialize_model(model) == text  # documents are serialization fixpoints

chain = to_ctmc(eliminate_vanishing(explore(model)), "up")
exact = unavailability(chain, steady_state_gth(chain))
print(f"exact unavailability: {exact:.6e}")

est = simulate(model, "up", horizon=1e7, seed=2024)
print(f"batch means:   1 - point = {1 - est.point:.6e} "
      f"+/- {est.ci_halfwidth:.2e} ({est.batches} batches)")

reps = simulate_replicated(model, "up", horizon=1e6, replications=10, seed=2024)
print(f"replications:  1 - point = {1 - reps.point:.6e} "
      f"+/- {reps.ci_halfwidth:.2e} ({reps.batches} replications)")

# Double the software failure rate in a copy of the model and re-solve.
doubled = dataclasses.replace(
    model, parameters={**model.parameters,
                       "lambda_SW": 2 * model.parameters["lambda_SW"]})
chain2 = to_ctmc(eliminate_vanishing(explore(doubled)), "up")
worse = unavailability(chain2, steady_state_gth(chain2))
print(f"with doubled software failure intensity: {worse:.6e} "
      f"({worse / exact:.2f}x)")

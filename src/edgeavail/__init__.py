"""edgeavail: steady-state availability of 5G/MEC-style deployments.

Build stochastic activity networks (or load them from ``.san`` documents),
solve them exactly as continuous-time Markov chains, cross-check with a
discrete-event Monte-Carlo estimator, and combine element unavailabilities
through a fault tree.  Ships five ready-made element models plus the sweep
studies built on them.
"""

from .errors import (ComputationError, DenseBlockTooLarge, DivisionByZero,
                     EdgeavailError, EvaluationError, NegativeTokens, NotConverged,
                     NotIrreducible, ParseError, SemanticError,
                     SparseStagesTooLarge, StateSpaceExceeded,
                     UnknownIdentifier, UnknownReward, VanishingLivelock,
                     VanishingLoop)
from .expr import Expr, identifiers, parse_expression, to_text
from .san import (Activity, CaseSpec, Effect, InputSpec, Marking, Place,
                  RewardPredicate, SanModel, put, set_to, take, validate)
from .document import parse_model, serialize_model
from .statespace import (Ctmc, StateGraph, eliminate_vanishing, explore,
                         to_ctmc)
from .solver import (SteadyState, availability, steady_state_gth,
                     steady_state_iterative, unavailability)
from .simulator import SimEstimate, simulate, simulate_replicated
from .faulttree import (And, BasicEvent, FtNode, KofN, Or, RedundancyConfig,
                        build_5gmec_ft, eval_ft, parse_ft, system_unavailability,
                        to_ft_text, u_ran, u_sys)
from .models import (ElementKind, IntensityTable, build_cluster, build_cu,
                     build_du, build_element, build_meh, build_ru,
                     builtin_models, default_table, element_unavailability)
from .experiments import (SweepResult, SweepRow, run_alpha_sweep,
                          run_cluster_sweep, run_redundancy_configs,
                          run_table3, svg_line_chart)

__version__ = "0.1.0"

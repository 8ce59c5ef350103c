import contextlib
import pathlib
import signal

import numpy as np
import pytest

from edgeavail.expr import parse_expression as P
from edgeavail.models import default_table
from edgeavail.san import (Activity, CaseSpec, InputSpec, Place,
                           RewardPredicate, SanModel, put, take)
from edgeavail.statespace import StateGraph

REPO = pathlib.Path(__file__).resolve().parents[1]
DATA = pathlib.Path(__file__).resolve().parent / "data"
MODELS = REPO / "src" / "edgeavail" / "elements"


def two_state_model(lam=0.1, mu=0.9) -> SanModel:
    return SanModel(
        places=(Place("Up", 1), Place("Down", 0)),
        parameters={"lam": lam, "mu": mu},
        activities=(
            Activity("fail", P("lam"), InputSpec(P("#Up >= 1"), (take("Up"),)),
                     (CaseSpec(1.0, (put("Down"),)),)),
            Activity("repair", P("mu"), InputSpec(P("#Down >= 1"), (take("Down"),)),
                     (CaseSpec(1.0, (put("Up"),)),)),
        ),
        rewards=(RewardPredicate("up", P("#Up >= 1")),),
        description="two-state fail/repair",
    )


def state_graph(tangible, edges, initial=0) -> StateGraph:
    """A graph built without a model: state ``i`` is the marking ``(i,)``,
    ``edges`` are ``(src, dst, value)`` triples, edge ``k`` labeled ``ek/0``."""
    src, dst, value = (list(column) for column in zip(*edges)) if edges else ([], [], [])
    return StateGraph(None, ("S",), [(i,) for i in range(len(tangible))],
                      list(tangible), np.array(src, dtype=np.int64),
                      np.array(dst, dtype=np.int64), np.array(value, dtype=float),
                      np.arange(len(edges)), tuple(f"e{k}/0" for k in range(len(edges))),
                      initial)


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise ``TimeoutError`` inside the block if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def table():
    return default_table()


@pytest.fixture
def two_state():
    return two_state_model()

"""Fault-tree combination of element unavailabilities.

Events are treated as statistically independent — the decomposition
assumption behind solving each element separately and combining the results
here.  Gate semantics on unavailabilities:

* ``And``  — fails only if every child fails (redundancy): product of U.
* ``Or``   — fails if any child fails (series): 1 - product of (1 - U),
  computed as ``-expm1(sum of log1p(-U))`` so that no digit is lost to the
  subtraction when every U is small (a child with U = 1 gives exactly 1).
* ``KofN`` — needs k of n children working: binomial-style tail over the
  children's failure probabilities (children need not be identical).

``u_ran``/``u_sys`` are the closed forms for the modeled deployment, and
``build_5gmec_ft`` is the equivalent explicit tree:

    U_RAN = Or(U_CU, Or(U_DU, U_RU^N_R)^N_D)^N_C
    U_Sys = Or(U_RAN, U_5GC, U_MANO, U_MEH^N_H)

where ``Or(u1, u2, ...)`` is the series combination above.  Both the closed
forms and the ``Or`` gate use the same kernel, so system U keeps the digits
the element solves kept even where it is about 1e-12.

A reading of the tree: a radio group fails when all N_R radio units fail; a
distributed-unit branch fails if its unit or its radio group fails; a gNodeB
fails if its central unit fails or all N_D branches fail; the access network
fails when all N_C gNodeBs fail.  One edge host out of N_H suffices.  The
core cluster and the manager are single points of failure at this level
(their internal redundancy lives in the cluster model).

Trees can also be read from a small text format (see ``parse_ft``)::

    or(basic(core, 2.66e-4),
       kofn(2, basic(a, 0.1), basic(b, 0.1), basic(c, 0.2)))
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ParseError
from .expr import TokenCursor, tokenize


@dataclass(frozen=True)
class BasicEvent:
    name: str
    unavailability: float

    def __post_init__(self):
        if not 0.0 <= self.unavailability <= 1.0:
            raise ValueError(f"unavailability of '{self.name}' outside [0, 1]: "
                             f"{self.unavailability!r}")


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("And gate needs at least one child")


@dataclass(frozen=True)
class Or:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("Or gate needs at least one child")


@dataclass(frozen=True)
class KofN:
    k: int
    children: tuple

    def __post_init__(self):
        if not 1 <= self.k <= len(self.children):
            raise ValueError(f"KofN needs 1 <= k <= n, got k={self.k}, "
                             f"n={len(self.children)}")


FtNode = BasicEvent | And | Or | KofN


@dataclass(frozen=True)
class RedundancyConfig:
    N_C: int = 1  # gNodeBs (central units) reachable
    N_D: int = 1  # distributed units per gNodeB
    N_R: int = 1  # radio units per distributed unit
    N_H: int = 1  # edge hosts

    def __post_init__(self):
        for name in ("N_C", "N_D", "N_R", "N_H"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


def _any_fails(us) -> float:
    """1 - prod(1 - u) over independent failure probabilities, subtraction-free."""
    s = 0.0
    for u in us:
        if u >= 1.0:
            return 1.0
        s += math.log1p(-u)
    return 0.0 - math.expm1(s)  # keeps an all-zero input at +0.0


def eval_ft(node: FtNode) -> float:
    """Top-event unavailability, assuming independent children."""
    if isinstance(node, BasicEvent):
        return node.unavailability
    if isinstance(node, And):
        u = 1.0
        for c in node.children:
            u *= eval_ft(c)
        return u
    if isinstance(node, Or):
        return _any_fails(eval_ft(c) for c in node.children)
    if isinstance(node, KofN):
        # P(fewer than k children work); dp[j] = P(exactly j working so far).
        us = [eval_ft(c) for c in node.children]
        dp = [1.0] + [0.0] * len(us)
        for u in us:
            up = 1.0 - u
            for j in range(len(dp) - 2, -1, -1):
                dp[j + 1] += dp[j] * up
                dp[j] *= u
        return min(1.0, max(0.0, sum(dp[:node.k])))
    raise TypeError(f"not a fault-tree node: {node!r}")


def u_ran(U_RU: float, U_DU: float, U_CU: float, cfg: RedundancyConfig) -> float:
    """Closed-form access-network unavailability."""
    branch = _any_fails((U_DU, U_RU ** cfg.N_R))
    return _any_fails((U_CU, branch ** cfg.N_D)) ** cfg.N_C


def u_sys(U_RAN: float, U_5GC: float, U_MANO: float, U_MEH: float, N_H: int) -> float:
    """Closed-form system unavailability from the four top-level branches."""
    return _any_fails((U_RAN, U_5GC, U_MANO, U_MEH ** N_H))


def system_unavailability(element_us: dict, cfg: RedundancyConfig) -> float:
    """Convenience: closed forms applied to a {ru, du, cu, meh, 5gc, mano} map."""
    ran = u_ran(element_us["ru"], element_us["du"], element_us["cu"], cfg)
    return u_sys(ran, element_us["5gc"], element_us["mano"], element_us["meh"], cfg.N_H)


def build_5gmec_ft(cfg: RedundancyConfig, element_us: dict) -> FtNode:
    """Explicit tree whose evaluation equals the closed forms.

    ``element_us`` maps ``ru du cu meh 5gc mano`` to unavailabilities.
    """
    ru = BasicEvent("ru", element_us["ru"])
    du_branch = Or((BasicEvent("du", element_us["du"]),
                    And(tuple(itertools.repeat(ru, cfg.N_R)))))
    gnodeb = Or((BasicEvent("cu", element_us["cu"]),
                 And(tuple(itertools.repeat(du_branch, cfg.N_D)))))
    ran = And(tuple(itertools.repeat(gnodeb, cfg.N_C)))
    meh_group = And(tuple(itertools.repeat(BasicEvent("meh", element_us["meh"]),
                                           cfg.N_H)))
    return Or((BasicEvent("5gc", element_us["5gc"]),
               BasicEvent("mano", element_us["mano"]),
               meh_group,
               ran))


# ── text format ──────────────────────────────────────────────────────────────

def parse_ft(text: str) -> FtNode:
    """Parse the functional tree notation: basic(name, u), and(...), or(...), kofn(k, ...)."""
    cur = TokenCursor(tokenize(text))
    node = _parse_node(cur)
    if not cur.at("EOF"):
        t = cur.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.column,
                         {"end of input"})
    return node


def _parse_node(cur: TokenCursor) -> FtNode:
    t = cur.peek()
    if t.kind != "IDENT" or t.text not in ("basic", "and", "or", "kofn"):
        raise cur.fail({"'basic'", "'and'", "'or'", "'kofn'"})
    word = cur.next().text
    cur.expect("(", expected={"'('"})
    try:
        if word == "basic":
            name = cur.expect("IDENT", expected={"an event name"}).text
            cur.expect(",", expected={"','"})
            node = BasicEvent(name, _parse_number(cur))
        elif word == "kofn":
            k = _parse_number(cur)
            if not k.is_integer():   # false for inf too
                raise ParseError(f"k must be an integer, got {k!r}", t.line, t.column)
            children = []
            while cur.at(","):
                cur.next()
                children.append(_parse_node(cur))
            node = KofN(int(k), tuple(children))
        else:
            children = [_parse_node(cur)]
            while cur.at(","):
                cur.next()
                children.append(_parse_node(cur))
            node = (And if word == "and" else Or)(tuple(children))
    except ValueError as err:
        raise ParseError(str(err), t.line, t.column) from None
    cur.expect(")", expected={"')'", "','"})
    return node


def _parse_number(cur: TokenCursor) -> float:
    neg = cur.at("-")
    if neg:
        cur.next()
    t = cur.expect("NUMBER", expected={"a number"})
    return -float(t.text) if neg else float(t.text)


def to_ft_text(node: FtNode) -> str:
    if isinstance(node, BasicEvent):
        return f"basic({node.name}, {node.unavailability!r})"
    if isinstance(node, KofN):
        inner = ", ".join(to_ft_text(c) for c in node.children)
        return f"kofn({node.k}, {inner})"
    word = "and" if isinstance(node, And) else "or"
    return f"{word}({', '.join(to_ft_text(c) for c in node.children)})"

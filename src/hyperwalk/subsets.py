"""Bitmask arithmetic for subsets of {0, ..., L}.

A node is a subset of {0, ..., L} encoded little-endian as a nonnegative
integer (element k set iff bit k set), so the node doubles as the index of
its basis vector in a state array of length 2**(L+1).  Masks that differ in
one bit are adjacent: the nodes are the (L+1)-dimensional hypercube graph.
"""

from __future__ import annotations

import os
from typing import NamedTuple

MAX_LEVEL_ENV_VAR = "HYPERWALK_L_MAX"


def natural(text: str) -> int:
    """int(text) for the ASCII digits 0-9 alone, else ValueError: int() also
    takes whitespace, a sign, "_" and other scripts' digits.  Leading zeros
    are dropped first; digits that are still more than int() reads
    (sys.get_int_max_str_digits) raise OverflowError, named by their count.
    Every integer read from text (node elements, --L, pi fractions, the cap)
    takes it."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected the digits 0-9 alone, got {text!r}")
    digits = text.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:
        raise OverflowError(f"an integer of {len(digits)} digits is beyond int()'s digit limit") from None


def real(text: str) -> float:
    """float(text) for ASCII text without "_", else ValueError: float() also
    takes other scripts' digits and "_" between digits (--t, --t0, --tol)."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"expected a float in ASCII without '_', got {text!r}")
    return float(text)


# a NamedTuple class may not define __new__, so Level's checks live in a subclass
class _LevelFields(NamedTuple):
    L: int


class Level(_LevelFields):
    """Walk order L with the derived index space [0, 2**(L+1)): an immutable
    value, equal and hashed by L and printed as Level(L=3)."""

    __slots__ = ()

    def __new__(cls, L: int) -> Level:
        raw = os.environ.get(MAX_LEVEL_ENV_VAR) or "24"  # the cap on L; unset or empty: 24
        try:
            cap = natural(raw.strip())
        except ValueError:
            raise ValueError(f"{MAX_LEVEL_ENV_VAR} must be a nonnegative integer, got {raw!r}") from None
        if not isinstance(L, int) or isinstance(L, bool):
            raise ValueError(f"L must be an integer, got {L!r}")
        if not 0 <= L <= cap:
            raise ValueError(f"L must be in [0, {cap}], got {L}")
        return super().__new__(cls, L)

    @property
    def dim(self) -> int:
        return 1 << (self.L + 1)

    @property
    def full_mask(self) -> int:
        """Bitmask of the full ground set {0, ..., L}."""
        return self.dim - 1

    def validate_node(self, sigma: int) -> int:
        if not isinstance(sigma, int) or isinstance(sigma, bool):
            raise ValueError(f"node must be an integer bitmask, got {sigma!r}")
        if not 0 <= sigma < self.dim:
            raise ValueError(f"node {sigma} out of range [0, {self.dim}) for L={self.L}")
        return sigma


def elements(sigma: int) -> list[int]:
    """Ascending list of the elements of the subset."""
    if sigma < 0:
        raise ValueError(f"node mask must be nonnegative, got {sigma}")
    return [k for k in range(sigma.bit_length()) if sigma >> k & 1]


def format_node(sigma: int) -> str:
    """Canonical node string: ascending comma-separated elements in braces.

    The empty set prints as "{}".
    """
    return "{" + ",".join(str(k) for k in elements(sigma)) + "}"


def edges(level: Level) -> list[tuple[int, int]]:
    """Every edge once, smaller index first, sorted lexicographically.  The
    graph is never stored: each edge flips one bit of a node."""
    out = []
    for sigma in range(level.dim):
        for k in range(level.L + 1):
            tau = sigma ^ (1 << k)
            if sigma < tau:
                out.append((sigma, tau))
    return out


def element_strings(n: int) -> list[str]:
    """format_node of every node in [0, 2**n) without its braces, in order,
    built by doubling over the bits."""
    low = [""]
    for k in range(n):
        low += [f"{p},{k}" if p else str(k) for p in low]
    return low


def parse_node(text: str, level: Level) -> int:
    """Parse a node string into a bitmask.

    Accepts "" or "∅" or "{}" for the empty set, otherwise comma-separated
    distinct integers in [0, L], written in the ASCII digits 0-9 alone,
    optionally wrapped in braces.  Parsing the canonical output of
    :func:`format_node` round-trips.
    """
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1].strip()
    if body in ("", "∅"):
        return 0
    bits = 0
    for token in body.split(","):
        try:
            k = natural(token.strip())
        except ValueError:
            raise ValueError(f"malformed element {token!r} in node string {text!r}") from None
        if not 0 <= k <= level.L:
            raise ValueError(f"element {k} out of range [0, {level.L}] in node string {text!r}")
        if bits >> k & 1:
            raise ValueError(f"duplicate element {k} in node string {text!r}")
        bits |= 1 << k
    return bits

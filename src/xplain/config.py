"""Brute-force budgets shared by the exhaustive checkers.

Every exhaustive code path (verification by enumeration, the homogeneity
checks and flip searches of all five families, the ground-truth oracle)
refuses to run above a configured number of free features; above the
``verify`` cap a flip search classifies at most 2**verify flipped examples.
The ``verify`` cap counts the free features the model reads: an engine
table covers only those, and ``verify._read_table`` builds every one.
The oracle caps count the whole universe, read or not.
Exceeding a cap raises :class:`CapExceeded`; nothing is ever silently
truncated.  The library's ``DEFAULT_CAPS`` are the constant defaults and
never read the environment; the command line reads ``XPLAIN_BRUTE_CAP``,
which overrides all caps at once, per call through ``BruteCaps.from_env``,
so a malformed value is an error of that call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import inf

from .core import check_ints

ENV_CAP = "XPLAIN_BRUTE_CAP"


class CapExceeded(RuntimeError):
    """A brute-force enumeration was asked to search too many free features."""


@dataclass(frozen=True, slots=True)
class BruteCaps:
    verify: int = 24          # read free features of a verification or flip table
    oracle_local: int = 16    # |F| for the exhaustive oracle, local kinds
    oracle_global: int = 12   # |F| for the exhaustive oracle, global kinds

    def __post_init__(self) -> None:
        check_ints((self.verify, self.oracle_local, self.oracle_global), 0, inf,
                   f"brute-force caps must be nonnegative ints ({ENV_CAP} sets all three)")

    @staticmethod
    def from_env() -> "BruteCaps":
        raw = os.environ.get(ENV_CAP)
        if raw is None:
            return BruteCaps()
        cap = int(raw)
        return BruteCaps(verify=cap, oracle_local=cap, oracle_global=cap)


DEFAULT_CAPS = BruteCaps()


def require_cap(free: int, cap: int, what: str) -> None:
    if free > cap:
        raise CapExceeded(f"{what}: {free} free features exceed the cap of {cap}")

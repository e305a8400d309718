"""The hint (optimizer steering) interface.

LimeQO uses the same 49 hint sets as Bao: six boolean PostgreSQL
configuration parameters (``enable_hashjoin``, ``enable_mergejoin``,
``enable_nestloop``, ``enable_indexscan``, ``enable_seqscan``,
``enable_indexonlyscan``).  Of the 64 on/off combinations, only those with
at least one join operator and at least one scan operator enabled are
valid, yielding 7 x 7 = 49 hint sets.  The all-enabled configuration is the
DBMS default and is placed first (column 0 of the workload matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, List

from ..errors import HintError

JOIN_KNOBS = ("enable_hashjoin", "enable_mergejoin", "enable_nestloop")
SCAN_KNOBS = ("enable_indexscan", "enable_seqscan", "enable_indexonlyscan")
ALL_KNOBS = JOIN_KNOBS + SCAN_KNOBS


@dataclass(frozen=True)
class HintSet:
    """A single optimizer configuration ("hint set" in Bao's terminology)."""

    enable_hashjoin: bool = True
    enable_mergejoin: bool = True
    enable_nestloop: bool = True
    enable_indexscan: bool = True
    enable_seqscan: bool = True
    enable_indexonlyscan: bool = True

    def __post_init__(self) -> None:
        if not (self.enable_hashjoin or self.enable_mergejoin or self.enable_nestloop):
            raise HintError("at least one join operator must be enabled")
        if not (self.enable_indexscan or self.enable_seqscan or self.enable_indexonlyscan):
            raise HintError("at least one scan operator must be enabled")

    @property
    def is_default(self) -> bool:
        """True when every knob is enabled (PostgreSQL's default plan)."""
        return all(getattr(self, knob) for knob in ALL_KNOBS)

    def allowed_join_operators(self) -> List[str]:
        """Names of the join operators this hint set permits."""
        allowed = []
        if self.enable_hashjoin:
            allowed.append("hash_join")
        if self.enable_mergejoin:
            allowed.append("merge_join")
        if self.enable_nestloop:
            allowed.append("nested_loop")
        return allowed

    def allowed_scan_operators(self) -> List[str]:
        """Names of the scan operators this hint set permits."""
        allowed = []
        if self.enable_seqscan:
            allowed.append("seq_scan")
        if self.enable_indexscan:
            allowed.append("index_scan")
        if self.enable_indexonlyscan:
            allowed.append("index_only_scan")
        return allowed

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        disabled = [knob for knob in ALL_KNOBS if not getattr(self, knob)]
        if not disabled:
            return "HintSet(default)"
        return "HintSet(disable: " + ", ".join(disabled) + ")"


def _valid_combinations() -> Iterator[HintSet]:
    """Yield the 49 valid hint sets, default first, in a stable order."""
    yield HintSet()
    join_combos = [c for c in product([True, False], repeat=3) if any(c)]
    scan_combos = [c for c in product([True, False], repeat=3) if any(c)]
    for joins in join_combos:
        for scans in scan_combos:
            hint = HintSet(
                enable_hashjoin=joins[0],
                enable_mergejoin=joins[1],
                enable_nestloop=joins[2],
                enable_indexscan=scans[0],
                enable_seqscan=scans[1],
                enable_indexonlyscan=scans[2],
            )
            if hint.is_default:
                continue
            yield hint


def all_hint_sets() -> List[HintSet]:
    """Return the 49 valid hint sets; index 0 is the DBMS default."""
    return list(_valid_combinations())


def default_hint_set() -> HintSet:
    """Return the all-enabled (default) hint set."""
    return HintSet()


NUM_HINT_SETS = len(all_hint_sets())

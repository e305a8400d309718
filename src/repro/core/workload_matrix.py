"""The partially observed workload matrix (paper Figure 1, Section 4.1).

Rows are queries, columns are hint sets, entries are plan latencies in
seconds.  Three states per entry:

* **unobserved** -- never executed; the stored value is ``inf``,
* **observed** -- executed to completion; the stored value is the latency,
* **censored** -- executed but cancelled at a timeout; the stored value is
  the timeout, which is a *lower bound* on the true latency.

Censored entries do not count as observed for the purposes of the mask
matrix ``M`` (they must not be fit exactly); their stored lower bound gives
the timeout matrix ``T`` (the bound, else 0) used by the censored ALS solver
and the censored TCNN loss, and a payload's ``"timeouts"``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MatrixError
from .als import SolverCells


def checked_ids(name: str, ids, bound: int, error) -> np.ndarray:
    """``ids`` as a 1-D int64 array of values in ``[0, bound)``, or ``error``.

    The one id check of every batched front door (matrix, serving, cluster,
    trainer).  ``np.asarray(ids, dtype=np.int64)`` would truncate ``1.7`` to
    someone else's row, read ``True`` as row 1 and ``"3"`` as row 3, so only
    integer dtypes pass; an empty batch names no row and passes whatever
    dtype numpy guessed for it.  A list or tuple is searched for a bool
    first (:func:`_bool_element`): numpy reads ``[0, True]`` as ``[0, 1]``.
    """
    if _bool_element(ids):
        raise error(f"{name} ids must be integers, got a bool among {len(ids)}")
    ids = np.asarray(ids)
    # The good case costs the two reductions; messages are built on the way out.
    if ids.ndim == 1 and (
        ids.size == 0
        or (ids.dtype.kind in "iu" and 0 <= ids.min() and ids.max() < bound)
    ):
        return ids.astype(np.int64, copy=False)
    if ids.ndim != 1:
        raise error(f"{name} ids must be one-dimensional, got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise error(f"{name} ids must be integers, got dtype {ids.dtype}")
    raise error(
        f"{name} id out of range [0, {bound}): min {ids.min()}, max {ids.max()}"
    )


#: The bool types.  An element's exact ``type`` says it: ``bool`` cannot be
#: subclassed, and numpy builds plain ``np.bool_`` scalars only.
_BOOLS = frozenset((bool, np.bool_))


def _bool_element(values) -> bool:
    """True when a list or tuple holds a ``bool`` or ``np.bool_``, which
    ``np.asarray`` would upcast to a number beside ints or floats.  An
    ndarray's dtype already says it, so array callers pay nothing here."""
    return isinstance(values, (list, tuple)) and not _BOOLS.isdisjoint(map(type, values))


def checked_id(name: str, value, bound: int, error) -> int:
    """:func:`checked_ids` for one id: an ``int`` in ``[0, bound)``, or
    ``error``.  (numpy reads ``[True, 2]`` as "new axis, row 2", so the
    scalar doors hold the same rule: integral, never ``bool``.)"""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise error(f"{name} ids must be integers, got {value!r}")
        value = int(value)
    if not 0 <= value < bound:
        raise error(f"{name} id {value} out of range [0, {bound})")
    return value


def checked_values(door: str, values, censored: bool, error):
    """``values`` as a float array of cell values, or ``error``: the one
    statement of the cell-value rule.  An observed latency is finite and
    ``>= 0``, a censored bound finite and ``> 0``; only integer and float
    dtypes pass, so a bool is refused as a bool id is (:func:`checked_ids`).
    NaN fails both compares.  A plain ``float`` is one cell, as the scalar
    door gets it: it is compared as itself, with no numpy call.  A list or
    tuple with a bool in it is refused before numpy can upcast the bool."""
    if type(values) is float:
        low = high = values
    elif _bool_element(values):
        low = high = np.nan  # no cell value: refused as NaN is
    else:
        values = np.asarray(values)
        if values.dtype.kind not in "iuf":
            low = high = np.nan  # no cell value: refused as NaN is
        else:
            values = values.astype(float, copy=False)
            if values.size == 0:
                return values
            low, high = values.min(), values.max()
    if (low > 0 if censored else low >= 0) and high < np.inf:
        return values
    rule = "censored bounds must be finite and > 0" if censored else (
        "latencies must be finite and >= 0"
    )
    shown = values[:4] if isinstance(values, (list, tuple)) else np.asarray(values).ravel()[:4]
    raise error(f"{door}: {rule}, got {shown!r}")


def checked_cells(door: str, queries, hints, values, shape, censored: bool, error) -> tuple:
    """``(queries, hints, values)`` as a cell mutator of a ``shape`` matrix
    takes them: in-range integer ids (:func:`checked_ids`), three 1-D arrays
    of one length, and values by :func:`checked_values` -- or ``error``.
    The check of every feedback door: the matrix's mutators, recovery's
    replay of ``observe`` records, and the cluster's."""
    queries = checked_ids("query", queries, shape[0], error)
    hints = checked_ids("hint", hints, shape[1], error)
    values = checked_values(door, values, censored, error)
    if not (queries.shape == hints.shape == np.shape(values)):
        raise error(
            f"{door} needs three 1-D arrays of equal length, got "
            f"{queries.shape}, {hints.shape}, {np.shape(values)}"
        )
    return queries, hints, values


def _payload_arrays(payload: Dict, door: str, own: bool) -> tuple:
    """The four cell arrays and the query names (or None) of a ``to_dict`` /
    ``export_rows`` payload: 2-D, of one shape, one name per row, and every
    cell what the mutators would have let in -- or :class:`MatrixError`.
    Payloads come from disk and from other shards; ``to_dict`` gives an
    accepted one back byte for byte.  With ``own`` values and flags are
    copies, made once, here; else (and for ``timeouts``) they are as given."""
    read = np.array if own else np.asarray
    try:
        values = read(payload["values"], dtype=float)
        observed = read(payload["observed"], dtype=bool)
        censored = read(payload["censored"], dtype=bool)
        timeouts = np.asarray(payload["timeouts"], dtype=float)
        names = payload.get("query_names")
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixError(f"{door}: unreadable payload ({exc!r})") from None
    if values.ndim != 2 or not (
        values.shape == observed.shape == censored.shape == timeouts.shape
    ):
        raise MatrixError(
            f"{door} payload arrays must be 2-D and agree on shape, got "
            f"{values.shape}, {observed.shape}, {censored.shape}, {timeouts.shape}"
        )
    if names is not None:
        names = WorkloadMatrix._validate_names(names, values.shape[0], "query")
    if (observed & censored).any():
        raise MatrixError(f"{door}: a cell is both observed and censored")
    checked_values(door, values[observed], False, MatrixError)
    bounds = checked_values(door, timeouts[censored], True, MatrixError)
    # Bounds are non-zero, so no other timeout may have a bit set (no n x k temporary).
    if (values[censored] != bounds).any() or np.count_nonzero(timeouts.view(np.int64)) != bounds.size:
        raise MatrixError(f"{door}: a censored cell's value must be its bound, any other timeout 0")
    return values, observed, censored, timeouts, names


class WorkloadMatrix:
    """A partially observed latency matrix with censored observations."""

    def __init__(
        self,
        n_queries: int,
        n_hints: int,
        query_names: Optional[Sequence[str]] = None,
    ) -> None:
        self._adopt((n_queries, n_hints), None, query_names, None)

    def _adopt(self, shape, cells, query_names, hint_names) -> None:
        """Set up a ``shape`` matrix over ``cells``, the three cell arrays as
        they are (no copy), or over blank ones when ``cells`` is None: what
        ``__init__``, ``from_dict`` and ``copy`` share."""
        n_queries, n_hints = shape
        if n_queries < 1 or n_hints < 1:
            raise MatrixError(
                f"workload matrix needs positive dimensions, got {n_queries}x{n_hints}"
            )
        self._values, self._observed, self._censored = cells or (
            np.full(shape, np.inf), np.zeros(shape, bool), np.zeros(shape, bool)
        )
        self._version = 0
        # Per-row last-modified version and the version of the last change
        # to the row *set*: what lets any number of consumers, each at its
        # own staleness, ask which rows moved (``rows_changed_since``).
        self._row_versions = np.zeros(n_queries, dtype=np.int64)
        self._structure_version = 0
        # Row minima as of ``_minima_version`` (-1 predates every row set, so
        # the first read builds them); patched on read from the stamps
        # (``_fresh_minima``), so writers never pay for them.
        self._minima = np.zeros(0)
        self._minima_version = -1
        self._cells, self._cells_version = (), -1  # the same for ``known_cells``
        self.query_names = self._validate_names(query_names, n_queries, "query")
        self.hint_names = self._validate_names(hint_names, n_hints, "hint")
        #: optional write-ahead journal (duck-typed ShardJournal).  Every
        #: mutator logs *before* it mutates, after validation; the hook
        #: lives here rather than on the service because re-exploration
        #: and migration mutate the matrix directly.
        self.journal = None

    @staticmethod
    def _validate_names(names: Optional[Sequence[str]], expected: int, kind: str) -> List[str]:
        """``names`` as a list of ``expected`` strings (generated when None),
        or :class:`MatrixError`: a name a journal's JSON cannot keep as it is
        (a number, a tuple) would recover as another value."""
        if names is None:
            return [f"{kind[0]}{i}" for i in range(expected)]
        names = list(names)
        if len(names) != expected:
            raise MatrixError(
                f"expected {expected} {kind} names, got {len(names)}"
            )
        if not all(isinstance(name, str) for name in names):
            bad = next(name for name in names if not isinstance(name, str))
            raise MatrixError(f"a {kind} name is a string, got {bad!r}")
        return names

    # -- shape ------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """(n_queries, n_hints)."""
        return self._values.shape

    @property
    def n_queries(self) -> int:
        """Number of rows (queries)."""
        return self._values.shape[0]

    @property
    def n_hints(self) -> int:
        """Number of columns (hint sets)."""
        return self._values.shape[1]

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation.

        Consumers that precompute derived arrays (the batched serving layer,
        cached plan-cache snapshots) compare versions instead of diffing the
        matrix to decide when to refresh.
        """
        return self._version

    def rows_changed_since(self, version: int) -> Optional[np.ndarray]:
        """Indices of rows mutated after ``version``; ``None`` when rows were
        added, imported or removed since then (row indices no longer line
        up, so the consumer must start over)."""
        if version < self._structure_version:
            return None
        return (self._row_versions > version).nonzero()[0]

    def _stamp(self, rows) -> None:
        """Bump the version and mark ``rows`` (any index) as changed at it."""
        self._version += 1
        self._row_versions[rows] = self._version

    def _restructured(self) -> None:
        """Bump the version after the row set itself changed."""
        self._version += 1
        self._structure_version = self._version
        self._row_versions = np.full(self.n_queries, self._version, dtype=np.int64)

    # -- recording observations --------------------------------------------
    def observe(self, query: int, hint: int, latency: float) -> None:
        """Record a completed execution of ``latency`` seconds (a one-cell
        :meth:`observe_batch`)."""
        self.observe_batch([query], [hint], [latency])

    def observe_batch(self, queries, hints, latencies) -> None:
        """Record many completed executions at once (vectorised `observe`).

        The serving layer feeds fresh measurements back in batches; doing the
        bookkeeping with one fancy-indexed assignment per array keeps the
        feedback path off the per-cell Python loop.
        """
        queries, hints, latencies = checked_cells(
            "observe_batch", queries, hints, latencies, self.shape, False, MatrixError
        )
        if queries.size == 0:
            return
        if self.journal is not None:
            self.journal.log_observe(queries, hints, latencies)
        self._values[queries, hints] = latencies
        self._observed[queries, hints] = True
        self._censored[queries, hints] = False
        self._stamp(queries)

    def observe_censored(self, query: int, hint: int, lower_bound: float) -> None:
        """Record a timed-out execution: true latency exceeds ``lower_bound``.

        The un-journaled explorer's door: a few scalar writes cost less than
        one :meth:`observe_censored_batch` (``docs/performance.md``, dead end
        (b)); the cell is checked by the same rule."""
        self._check_indices(query, hint)
        bound = float(checked_values("observe_censored", lower_bound, True, MatrixError))
        if self._observed[query, hint]:
            # A completed observation is strictly more informative; keep it.
            return
        if self.journal is not None:
            self.journal.log_censor([query], [hint], [bound])
        # Keep only the tightest (largest) lower bound seen so far.
        if self._censored[query, hint]:
            bound = max(self._values[query, hint], bound)
        self._values[query, hint] = bound
        self._censored[query, hint] = True
        self._stamp(query)

    def observe_censored_batch(self, queries, hints, lower_bounds) -> None:
        """Record many timed-out executions at once (vectorised
        :meth:`observe_censored`): completed cells are skipped, and a cell
        named more than once keeps its largest bound."""
        queries, hints, bounds = checked_cells(
            "observe_censored_batch", queries, hints, lower_bounds, self.shape, True, MatrixError
        )
        fresh = ~self._observed[queries, hints]
        if not fresh.all():
            queries, hints, bounds = queries[fresh], hints[fresh], bounds[fresh]
        if queries.size == 0:
            return
        if self.journal is not None:
            self.journal.log_censor(queries, hints, bounds)
        cells = (queries, hints)  # a cell's bound so far: its value if censored, else 0
        self._values[cells] = np.where(self._censored[cells], self._values[cells], 0.0)
        np.maximum.at(self._values, cells, bounds)
        self._censored[cells] = True
        self._stamp(queries)

    # -- state queries ------------------------------------------------------
    def is_observed(self, query: int, hint: int) -> bool:
        """True for completed (non-censored) observations."""
        self._check_indices(query, hint)
        return bool(self._observed[query, hint])

    def is_observed_batch(self, queries, hints) -> np.ndarray:
        """Vectorised :meth:`is_observed`: one bool per ``(queries[i], hints[i])``."""
        queries = checked_ids("query", queries, self.n_queries, MatrixError)
        hints = checked_ids("hint", hints, self.n_hints, MatrixError)
        if queries.shape != hints.shape:
            raise MatrixError(
                f"is_observed_batch needs equal lengths, got {queries.size} and {hints.size}"
            )
        return self._observed[queries, hints]

    def is_censored(self, query: int, hint: int) -> bool:
        """True for timed-out observations."""
        self._check_indices(query, hint)
        return bool(self._censored[query, hint])

    def value(self, query: int, hint: int) -> float:
        """Stored value: latency, censored lower bound, or ``inf``."""
        self._check_indices(query, hint)
        return float(self._values[query, hint])

    # -- matrix views ---------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Copy of the value matrix (``inf`` for unobserved entries)."""
        return self._values.copy()

    @property
    def mask(self) -> np.ndarray:
        """The mask matrix ``M``: 1 for completed observations, else 0."""
        return self._observed.astype(float)

    @property
    def censored_mask(self) -> np.ndarray:
        """Boolean matrix marking censored (timed-out) entries."""
        return self._censored.copy()

    @property
    def timeout_matrix(self) -> np.ndarray:
        """The timeout matrix ``T``: lower bounds for censored entries, else 0."""
        return np.where(self._censored, self._values, 0.0)

    def observed_latencies(self, rows: np.ndarray) -> np.ndarray:
        """Completed latencies of the given ``rows``, ``inf`` elsewhere.

        Censored and unexecuted cells are both ``inf``: only a completed
        observation can be served.  Masked in place -- a second
        matrix-sized temporary beside the gathered one costs more in page
        faults than the gather itself.
        """
        out = self._values.take(rows, axis=0)
        np.putmask(out, ~self._observed.take(rows, axis=0), np.inf)
        return out

    def solver_cells(self) -> SolverCells:
        """What censored ALS reads of the matrix, gathered through the known
        cells' kept flat indices: a solve copies and scans no ``n x k`` array."""
        obs, cen, _ = self.known_cells()
        values = self._values.reshape(-1)  # a censored cell's value is its bound
        return SolverCells(self.shape, obs, values[obs], cen, values[cen])

    def known_cells(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(observed, censored, known_per_row)``: the flat (row-major,
        ascending) indices of the completed and of the censored cells, and
        each row's count of executed cells.  Kept like :meth:`_fresh_minima`:
        a read patches only the rows stamped since the last one; a changed
        row set, or more stale rows than 1/64 of all, rebuilds them.  Not the
        caller's to keep or edit."""
        if self._cells_version != self._version:
            n, k = self.shape
            rows = self.rows_changed_since(self._cells_version)
            if rows is None or rows.size * 64 > n:
                # Two scans cost less than a patch's ~25 numpy calls on a
                # small matrix (docs/performance.md, "Known cells are kept state").
                obs, cen = np.flatnonzero(self._observed), np.flatnonzero(self._censored)
                known = np.bincount(obs // k, minlength=n) + np.bincount(cen // k, minlength=n)
            else:
                obs, cen, known = self._cells
                blocks = self._observed[rows], self._censored[rows]
                ids = (rows[:, None] * k + np.arange(k)).ravel()
                stale = np.zeros(n, dtype=bool)
                stale[rows] = True
                obs, cen = (  # timsort merges a sorted run and a short tail, ~linearly
                    np.sort(
                        np.concatenate((kept[~stale[kept // k]], ids[block.ravel()])),
                        kind="stable",
                    )
                    for kept, block in zip((obs, cen), blocks)
                )
                known[rows] = (blocks[0] | blocks[1]).sum(axis=1)
            self._cells = (obs, cen, known)
            self._cells_version = self._version
        return self._cells

    # -- row statistics --------------------------------------------------------
    def _fresh_minima(self) -> np.ndarray:
        """The cached row minima brought up to the current version: only rows
        stamped since they were built are re-gathered; a changed row set
        rebuilds them.  Callers must not hand the array out."""
        if self._minima_version != self._version:
            rows = self.rows_changed_since(self._minima_version)
            if rows is None:
                rows = np.arange(self.n_queries)
                self._minima = np.empty(self.n_queries)
            self._minima[rows] = self.observed_latencies(rows).min(axis=1)
            self._minima_version = self._version
        return self._minima

    def row_minima(self) -> np.ndarray:
        """Each query's best (minimum) *verified* latency, ``inf`` where it
        has none (the caller's to keep).

        Only completed observations participate: a censored entry records a
        lower bound on a plan that was never allowed to finish, so it cannot
        be served and must not lower the row minimum (Algorithm 1's timeout
        ``alpha * Ŵ_ij`` can sit below the current best).
        """
        return self._fresh_minima().copy()

    def row_stats(self, rows) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_min, completed observations)`` of each of ``rows``: the two
        reads Algorithm 1's timeout takes of a row, for a batch of rows."""
        rows = checked_ids("query", rows, self.n_queries, MatrixError)
        return self._fresh_minima()[rows], np.count_nonzero(self._observed[rows], axis=1)

    def best_hint(self, query: int) -> Optional[int]:
        """Index of the best *completed* hint for ``query`` (None if none)."""
        self._check_indices(query, 0)
        if not self._observed[query].any():
            return None
        row = np.where(self._observed[query], self._values[query], np.inf)
        return int(np.argmin(row))

    def best_hint_array(self) -> np.ndarray:
        """Vectorised :meth:`best_hint`: per-query argmin over completed
        observations, ``-1`` where a row has none.

        This is the precomputed array the batched serving path is built on:
        one call replaces ``n_queries`` per-row dictionary walks.
        """
        masked = np.where(self._observed, self._values, np.inf)
        best = masked.argmin(axis=1).astype(np.int64)
        has_observation = self._observed.any(axis=1)
        return np.where(has_observation, best, -1)

    # -- workload-level statistics (paper Equations 2 and 3) -------------------
    def workload_latency(self) -> float:
        """``P(W~)``: total latency of serving each query with its best hint."""
        return float(self._fresh_minima().sum())

    # -- unexplored entries -----------------------------------------------------
    def unknown_mask(self, rows=None) -> np.ndarray:
        """Boolean matrix: True where the entry was never executed; with
        ``rows``, only those rows (in that order).

        The policy hot path works on this array (and flat indices into it)
        instead of materialising a Python list of tuples every step.
        """
        if rows is None:
            return ~(self._observed | self._censored)
        rows = checked_ids("query", rows, self.n_queries, MatrixError)
        return ~(self._observed[rows] | self._censored[rows])

    def unknown_in_row(self, query: int) -> List[int]:
        """Hint indices never executed for ``query``."""
        self._check_indices(query, 0)
        unknown = ~(self._observed[query] | self._censored[query])
        return np.nonzero(unknown)[0].tolist()

    def observed_fraction(self) -> float:
        """Fraction of entries with completed observations."""
        return float(self._observed.mean())

    # -- growth (workload shift) --------------------------------------------------
    def add_query(self, name: Optional[str] = None) -> int:
        """Append a new, fully unobserved row and return its index."""
        if name is not None and not isinstance(name, str):
            raise MatrixError(f"a query name is a string or None, got {name!r}")
        if self.journal is not None:
            self.journal.log_add_query(name)
        index = self.n_queries
        self._values = np.vstack([self._values, np.full((1, self.n_hints), np.inf)])
        self._observed = np.vstack([self._observed, np.zeros((1, self.n_hints), bool)])
        self._censored = np.vstack([self._censored, np.zeros((1, self.n_hints), bool)])
        self.query_names.append(name if name is not None else f"q{index}")
        self._restructured()
        return index

    # -- row migration (cluster rebalancing) -------------------------------------
    def export_rows(self, queries: Sequence[int]) -> Dict:
        """Extract full row state for a set of queries (order preserved).

        The payload carries everything a row knows -- values, observed and
        censored flags, censored timeouts, and the query names -- so a
        serving shard can hand rows to another shard without losing any
        observation or lower bound.  ``hint_names`` travel along so the
        receiver can verify column compatibility.
        """
        indices = checked_ids("query", list(queries), self.n_queries, MatrixError)
        values, censored = self._values[indices], self._censored[indices]
        return {
            "values": values,
            "observed": self._observed[indices],
            "censored": censored,
            "timeouts": np.where(censored, values, 0.0),
            "query_names": [self.query_names[int(q)] for q in indices],
            "hint_names": list(self.hint_names),
        }

    def import_rows(self, payload: Dict) -> List[int]:
        """Append rows produced by :meth:`export_rows`; returns the new indices.

        The inverse half of a row migration: the exporting matrix drops the
        rows with :meth:`remove_queries`, the importing matrix appends them
        here.  Column count must match (hint sets are shared cluster-wide,
        rows are what gets sharded).  The payload is checked like
        :meth:`from_dict`'s; a refused one appends and journals nothing.
        """
        values, observed, censored, timeouts, names = _payload_arrays(
            payload, "import_rows", own=False
        )
        if names is None or values.shape[1] != self.n_hints:
            raise MatrixError(
                f"import_rows expects named rows with {self.n_hints} hints, "
                f"got shape {values.shape}"
            )
        if values.shape[0] == 0:
            return []
        if self.journal is not None:
            self.journal.log_import(
                {
                    "values": values,
                    "observed": observed,
                    "censored": censored,
                    "timeouts": timeouts,
                    "query_names": names,
                }
            )
        first = self.n_queries
        self._values = np.vstack([self._values, values])
        self._observed = np.vstack([self._observed, observed])
        self._censored = np.vstack([self._censored, censored])
        self.query_names.extend(names)
        self._restructured()
        return list(range(first, self.n_queries))

    def remove_queries(self, queries: Sequence[int]) -> None:
        """Drop rows in place; remaining rows shift down, preserving order.

        Callers that index rows by position (the cluster shards) must remap
        their row tables afterwards.  A matrix cannot become empty -- the
        owner should retire the whole matrix instead of removing every row.
        """
        indices = checked_ids("query", list(queries), self.n_queries, MatrixError)
        if indices.size == 0:
            return
        keep = np.ones(self.n_queries, dtype=bool)
        keep[indices] = False
        if not keep.any():
            raise MatrixError(
                "remove_queries cannot drop every row; retire the matrix instead"
            )
        if self.journal is not None:
            self.journal.log_remove(indices.tolist())
        self._values = self._values[keep]
        self._observed = self._observed[keep]
        self._censored = self._censored[keep]
        self.query_names = [
            name for name, kept in zip(self.query_names, keep) if kept
        ]
        self._restructured()

    def invalidate(self, queries: Optional[Iterable[int]] = None) -> None:
        """Forget observations (all queries, or a subset) after a data shift."""
        if queries is None:
            rows = slice(None)
        else:
            rows = checked_ids("query", list(queries), self.n_queries, MatrixError)
        if self.journal is not None:
            self.journal.log_invalidate(None if queries is None else rows.tolist())
        self._values[rows] = np.inf
        self._observed[rows] = False
        self._censored[rows] = False
        self._stamp(rows)

    # -- persistence -----------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Serialise to plain Python / numpy structures."""
        return {
            "values": self._values.copy(),
            "observed": self._observed.copy(),
            "censored": self._censored.copy(),
            "timeouts": self.timeout_matrix,
            "query_names": list(self.query_names),
            "hint_names": list(self.hint_names),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "WorkloadMatrix":
        """Inverse of :meth:`to_dict`.

        What recovery feeds a snapshot body and the first ``import`` record
        to, so the payload is checked like any input from outside: the
        arrays against each other, and every cell against what the mutators
        would have let in (:class:`MatrixError` otherwise), the same check
        :meth:`import_rows` makes.
        """
        *cells, _, names = _payload_arrays(payload, "from_dict", own=True)
        matrix = cls.__new__(cls)
        matrix._adopt(cells[0].shape, cells, names, payload.get("hint_names"))
        matrix._restructured()
        return matrix

    def copy(self) -> "WorkloadMatrix":
        """Deep copy: a fresh matrix, unjournaled, as ``from_dict(to_dict())``
        builds it, with one copy of each array."""
        cells = [self._values.copy(), self._observed.copy(), self._censored.copy()]
        matrix = WorkloadMatrix.__new__(WorkloadMatrix)
        matrix._adopt(self.shape, cells, self.query_names, self.hint_names)
        matrix._restructured()
        return matrix

    # -- misc ---------------------------------------------------------------------------
    def _check_indices(self, query: int, hint: int) -> None:
        # Plain in-range ints (every internal caller) cost two compares.
        n_queries, n_hints = self._values.shape
        if type(query) is not int or not 0 <= query < n_queries:
            checked_id("query", query, n_queries, MatrixError)
        if type(hint) is not int or not 0 <= hint < n_hints:
            checked_id("hint", hint, n_hints, MatrixError)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkloadMatrix({self.n_queries}x{self.n_hints}, "
            f"observed={self.observed_fraction():.1%}, "
            f"censored={float(self._censored.mean()):.1%})"
        )

"""The journal as a state machine: any interleaving of writes, checkpoints,
crashes and recoveries lands on a state a plain matrix also reached.

``JournalMachine`` drives a journaled :class:`WorkloadMatrix` beside a plain
reference matrix fed the same operations: single and batched observes and
censors (duplicate cells, censor-after-observe, hostile values), invalidation,
added, imported and removed rows, checkpoints, a crash at any of the
``FAULT_POINTS`` with a drawn torn fraction, and clean recoveries.  Both
matrices accept an operation or both refuse it, and a refused one journals
nothing.  After every recovery:

* the recovered state is byte-identical to the reference's just before the
  interrupted operation, or just after it when its record reached the disk;
* recovering a second time gives the same state and replay count;
* ``replayed_records`` is the number of records past the snapshot, counted
  by the machine itself.

The default profile keeps to the tier-1 budget; CI's ``chaos`` job runs
``--hypothesis-profile=chaos`` (registered in ``tests/conftest.py``).
"""

import math
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.workload_matrix import WorkloadMatrix
from repro.durability import FAULT_POINTS, FaultFS, FaultInjector, ShardJournal, recover_journal
from repro.errors import InjectedCrash, MatrixError

K = 2
ARRAYS = ("values", "observed", "censored", "timeouts")
#: Latencies and bounds: exact-double hazards, and now and then a refusal
#: (a batch holding one is refused whole, so they must not be too common).
VALUES = st.sampled_from(
    [1.5, 2.0, 0.1 + 0.2, 5e-324, 1e308, -0.0, 0.0] * 3 + [math.nan, math.inf, -1.0]
)
#: Where a crash leaves the interrupted write: on disk or not.
RECORD_ON_DISK = {
    "wal.append.before_write": False,
    "wal.append.torn_write": False,
    "wal.append.before_fsync": True,
    "wal.append.after_fsync": True,
}
#: Where a crash leaves a checkpoint: the new snapshot installed or not.
SNAPSHOT_INSTALLED = {
    "snapshot.before_write": False,
    "snapshot.torn_write": False,
    "snapshot.before_fsync": False,
    "snapshot.after_fsync": False,
    "snapshot.before_replace": False,
    "snapshot.after_replace": True,
    "wal.truncate.before_remove": True,
}
assert set(RECORD_ON_DISK) | set(SNAPSHOT_INSTALLED) == set(FAULT_POINTS)


def state_of(matrix):
    payload = matrix.to_dict()
    return [payload[key].tobytes() for key in ARRAYS] + [payload["query_names"]]


def draw_op(data, n):
    """One matrix operation, drawn for ``n`` rows: a callable on a matrix."""
    def cell():
        return data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, K - 1))

    def cells():
        drawn = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, K - 1)),
                                   max_size=8))
        values = [data.draw(VALUES) for _ in drawn]
        return [q for q, _ in drawn], [h for _, h in drawn], values

    kind = data.draw(st.sampled_from([
        "observe", "observe_batch", "observe_censored", "observe_censored_batch",
        "invalidate", "add_query", "import_rows", "remove_queries",
    ]))
    if kind == "observe":
        (q, h), v = cell(), data.draw(VALUES)
        return lambda m: m.observe(q, h, v)
    if kind == "observe_censored":
        (q, h), v = cell(), data.draw(VALUES)
        return lambda m: m.observe_censored(q, h, v)
    if kind in ("observe_batch", "observe_censored_batch"):
        q, h, v = cells()
        return lambda m: getattr(m, kind)(q, h, v)
    if kind == "invalidate":
        rows = data.draw(st.none() | st.lists(st.integers(0, n - 1), max_size=3))
        return lambda m: m.invalidate(rows)
    if kind == "add_query":
        name = data.draw(st.none() | st.sampled_from(["late", "q0"]))
        return lambda m: m.add_query(name)
    if kind == "import_rows":
        rows = data.draw(st.integers(1, 2))
        donor = WorkloadMatrix(rows, K, query_names=[f"in{i}" for i in range(rows)])
        donor.observe(0, data.draw(st.integers(0, K - 1)), data.draw(VALUES.filter(
            lambda v: math.isfinite(v) and v >= 0)))
        donor.observe_censored(rows - 1, K - 1, 0.75)
        payload = donor.export_rows(range(rows))
        return lambda m: m.import_rows(payload)
    rows = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))))
    return lambda m: m.remove_queries(rows)  # all of them: refused


class JournalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.home = tempfile.mkdtemp(prefix="repro-journal-machine-")
        self.fs = FaultFS()
        self.reference = WorkloadMatrix(2, K)
        self._attach(ShardJournal(self.home, fs=self.fs, sync="always"), self.reference.copy())
        self.journal.log_import(self.matrix.to_dict())  # the bootstrap, as a service logs it
        # The machine's own count of durable records and of the snapshot's cover.
        self.lsn, self.snapshot_lsn = 1, 0

    def _attach(self, journal, matrix):
        self.journal, self.matrix = journal, matrix
        matrix.journal = journal

    def teardown(self):
        self.journal.close()
        shutil.rmtree(self.home, ignore_errors=True)

    # -- operations ------------------------------------------------------------------
    def _both(self, op):
        """``op`` on the reference, then on the journaled matrix: both accept
        or both refuse, and a refused op appends nothing."""
        before = self.journal.next_lsn
        try:
            op(self.reference)
        except MatrixError:
            try:
                op(self.matrix)
            except MatrixError:
                assert self.journal.next_lsn == before
                return
            raise AssertionError("the journaled matrix accepted what the plain one refused")
        op(self.matrix)
        self.lsn = self.journal.next_lsn - 1

    @rule(data=st.data())
    def operate(self, data):
        self._both(draw_op(data, self.matrix.n_queries))

    @rule()
    def checkpoint(self):
        self.journal.checkpoint(self.matrix.to_dict())
        self.snapshot_lsn = self.lsn

    @rule(
        point=st.sampled_from(FAULT_POINTS),
        torn=st.floats(0.0, 0.99),
        data=st.data(),
    )
    def crash(self, point, torn, data):
        injector = FaultInjector()
        injector.arm(point, torn_fraction=torn)
        self.fs.injector = injector
        before = self.reference.copy()
        try:
            if point in SNAPSHOT_INSTALLED:
                self.checkpoint()
            else:
                self._both(draw_op(data, self.matrix.n_queries))
        except InjectedCrash:
            assert injector.fired == [point]
            if point in SNAPSHOT_INSTALLED:
                if SNAPSHOT_INSTALLED[point]:
                    self.snapshot_lsn = self.lsn
            elif RECORD_ON_DISK[point]:
                self.lsn += 1
            else:
                self.reference = before  # the write never happened
            self._recover()
        finally:
            self.fs.injector = None

    @rule()
    def recover(self):
        self._recover()

    def _recover(self):
        self.journal.crash()
        journal, state = recover_journal(self.home, fs=self.fs, sync="always")
        assert state_of(state.matrix) == state_of(self.reference)
        assert state.replayed_records == self.lsn - self.snapshot_lsn
        assert state.next_lsn == self.lsn + 1
        journal.close()
        journal, again = recover_journal(self.home, fs=self.fs, sync="always")
        assert state_of(again.matrix) == state_of(state.matrix)
        assert again.replayed_records == state.replayed_records
        self._attach(journal, again.matrix)

    @invariant()
    def live_state_matches(self):
        assert state_of(self.matrix) == state_of(self.reference)


TestJournalMachine = JournalMachine.TestCase
# The tier-1 budget, unless pytest runs with ``--hypothesis-profile=chaos``.
TestJournalMachine.settings = (
    settings.default
    if settings.default is settings.get_profile("chaos")
    else settings(max_examples=100, stateful_step_count=40, deadline=None)
)

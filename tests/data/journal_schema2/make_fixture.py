"""How the two journal directories beside this file were made.

Run once at commit 4175d51, the last one whose writers emitted schema 2
(every record and the snapshot body as sorted-key JSON, arrays as base64
of their raw little-endian bytes, one ``censor`` record per scalar cell)::

    PYTHONPATH=src python tests/data/journal_schema2/make_fixture.py

``checkpointed/`` holds a schema-2 snapshot plus a WAL with a base64
``import`` record after it; ``wal_only/`` never checkpointed, so its first
record is the base64 bootstrap ``import``.  ``tests/test_array_codec.py``
replays :func:`history` on a plain matrix and demands that the committed
bytes recover to exactly that state.
"""

import os

from repro.core.workload_matrix import WorkloadMatrix


def history(matrix, checkpoint=lambda: None):
    """The mutations behind the fixture; ``checkpoint`` fires mid-way."""
    matrix.observe_batch(
        [0, 1, 2, 3, 3], [0, 0, 1, 2, 0], [1.5, 5e-324, -0.0, 1e308, 0.1 + 0.2]
    )
    matrix.observe(4, 0, 0.1 + 0.2)
    matrix.observe_censored(4, 1, 2.25)
    matrix.observe_censored(4, 1, 1.75)  # a looser bound: the tighter one stays
    matrix.observe_censored(0, 0, 9.0)  # already observed: nothing logged
    checkpoint()
    donor = WorkloadMatrix(2, matrix.n_hints)
    donor.observe(0, 2, 1 / 3)
    donor.observe_censored(1, 0, 7.0)
    payload = donor.export_rows([0, 1])
    payload["query_names"] = ["moved-a", "moved-b"]
    matrix.import_rows(payload)  # an ``import`` record after the snapshot
    matrix.observe_batch([5, 6, 5], [0, 2, 0], [2.5e-310, 9.75, -0.0])
    matrix.observe_censored(6, 1, 5e-324)
    matrix.add_query("late")
    matrix.observe(7, 1, 4.0)
    matrix.invalidate([0])
    matrix.remove_queries([2])


if __name__ == "__main__":
    from repro.durability import ShardJournal, matrix_to_jsonable
    from repro.serving import ServingService

    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("checkpointed", "wal_only"):
        journal = ShardJournal(os.path.join(here, name))
        matrix = WorkloadMatrix(5, 3)
        ServingService(matrix, journal=journal)  # logs the bootstrap ``import``
        journal.log_adapt_backlog([4, 2])
        if name == "checkpointed":
            history(
                matrix,
                lambda: journal.checkpoint(matrix_to_jsonable(matrix.to_dict())),
            )
        else:
            history(matrix)
        journal.close()

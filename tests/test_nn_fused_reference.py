"""The trainer's straight-line forward and backward against the taped chain.

``TCNNTrainer`` writes the TCNN's forward and backward out by hand into flat
arrays; ``taped_tcnn`` builds the same network op by op on a small autograd
tape and trains it with the textbook per-parameter Adam.  Whole training runs
must agree bit for bit -- per-epoch losses, every parameter, and
``predict_cells`` -- including across a ``grow_queries`` mid-run.  Also here:
central finite differences against the hand-written backward, the stacked
tree convolution against the three-matmul association it replaced,
``predict_full``'s plan-space pass against the per-batch forward, and the
inference memory bound.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TCNNConfig
from repro.core.workload_matrix import WorkloadMatrix
from repro.nn.trainer import TCNNTrainer, _max_over_nodes
from repro.plans.featurize import NODE_FEATURE_DIM, _FullBatchCacheMixin, pack_trees
from taped_tcnn import (
    BinaryTreeConv, TapedTrainer, Tensor, TransductiveTCNN, censored_mse_loss, parameter,
)


def three_matmul_tree_conv_forward(self, nodes, left, right, mask):
    """The association the kernel had before the plan space was kept stacked:
    self, left and right products summed.  Equal to the stacked one up to
    rounding, not bit for bit."""
    if nodes.shape[2] != self.in_channels:
        nodes = Tensor(nodes.data[:, :, :self.in_channels])
    left_children = nodes.gather_nodes(left)
    right_children = nodes.gather_nodes(right)
    combined = (
        nodes.matmul(self.weight_self)
        + left_children.matmul(self.weight_left)
        + right_children.matmul(self.weight_right)
        + self.bias
    )
    activated = combined.relu()
    return activated.apply_mask(np.asarray(mask, dtype=float)[:, :, None])


# -- a small store of ragged plans ---------------------------------------------------------
class RaggedStore(_FullBatchCacheMixin):
    """Heap-shaped binary trees of 1..``max_real`` real nodes, one per cell."""

    def __init__(self, n_queries, n_hints, max_real, seed):
        self.shape = (n_queries, n_hints)
        rng = np.random.default_rng(seed)
        self._trees = {}
        for query in range(n_queries):
            for hint in range(n_hints):
                count = int(rng.integers(1, max_real + 1)) + 1  # +1 null node
                nodes = np.zeros((count, NODE_FEATURE_DIM))
                nodes[1:] = rng.normal(size=(count - 1, NODE_FEATURE_DIM))
                left = np.zeros(count, dtype=np.int64)
                right = np.zeros(count, dtype=np.int64)
                for parent in range(1, count):
                    if 2 * parent < count:
                        left[parent] = 2 * parent
                    if 2 * parent + 1 < count:
                        right[parent] = 2 * parent + 1
                self._trees[(query, hint)] = (nodes, left, right)

    def batch(self, cells):
        return pack_trees([self._trees[(int(q), int(h))] for q, h in cells])


def partly_observed(n, k, seed, censored_share):
    rng = np.random.default_rng(seed)
    truth = rng.lognormal(0.5, 1.0, size=(n, k))
    matrix = WorkloadMatrix(n, k)
    matrix.observe_batch(np.arange(n), np.zeros(n, dtype=np.int64), truth[:, 0])
    draw = rng.random((n, k))
    draw[:, 0] = 1.0
    rows, cols = np.nonzero(draw < 0.4)
    matrix.observe_batch(rows, cols, truth[rows, cols])
    for row, col in zip(*np.nonzero((draw >= 0.4) & (draw < 0.4 + censored_share))):
        matrix.observe_censored(int(row), int(col), float(truth[row, col]) * 0.5)
    return matrix


def every_cell(n, k):
    return np.stack(np.divmod(np.arange(n * k), k), axis=1)


# -- bit identity to the taped chain ------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(1, 3),
    use_embeddings=st.booleans(),
    dropout=st.sampled_from([0.0, 0.2]),
    censored_share=st.sampled_from([0.0, 0.1, 0.3]),
    max_real=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_fused_training_run_is_bit_identical_to_the_unfused_chain(
    depth, use_embeddings, dropout, censored_share, max_real, seed
):
    n, k, added = 7, 5, 2
    # The store already holds the queries that arrive mid-run: before they
    # do, the matrix is smaller than the store and cells are packed per fit.
    store = RaggedStore(n + added, k, max_real, seed)
    config = TCNNConfig(
        embedding_rank=3, channels=(6, 5, 4)[:depth], hidden_units=(7,),
        dropout=dropout, learning_rate=3e-3, batch_size=8, max_epochs=3,
        convergence_window=2, use_embeddings=use_embeddings, seed=seed % 7,
    )
    mine, taped = TCNNTrainer(store, n, k, config), TapedTrainer(store, n, k, config)
    small = partly_observed(n, k, seed + 1, censored_share)
    grown = partly_observed(n + added, k, seed + 2, censored_share)

    def run(trainer):
        losses = [trainer.fit(small), trainer.fit(small)]
        trainer.grow_queries(n + added)  # old rows keep their Adam moments
        losses.append(trainer.fit(grown))
        return losses, trainer.predict_cells(every_cell(n + added, k))

    losses, cells = run(mine)
    ref_losses, ref_cells = run(taped)
    assert losses == ref_losses
    state = taped.state()
    assert mine.parameters.keys() == state.keys()
    for name, value in state.items():
        assert np.array_equal(mine.parameters[name], value), name
    assert np.array_equal(cells, ref_cells)


@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(1, 3),
    max_real=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_stacked_kernel_matches_the_three_matmul_association(depth, max_real, seed):
    n, k = 5, 4
    store = RaggedStore(n, k, max_real, seed)
    config = TCNNConfig(
        embedding_rank=3, channels=(6, 5, 4)[:depth], hidden_units=(7,),
        dropout=0.0, seed=seed % 5,
    )
    model = TransductiveTCNN(n, k, config)
    batch = store.full_batch()
    query_idx, hint_idx = np.divmod(np.arange(n * k), k)
    targets = np.random.default_rng(seed).normal(1.0, 0.5, size=n * k)

    def values_and_gradients():
        model.zero_grad()
        out = model(batch, query_idx, hint_idx)
        censored_mse_loss(out, targets).backward()
        return [out.data] + [param.grad for param in model.parameters()]

    stacked = values_and_gradients()
    with mock.patch.object(BinaryTreeConv, "forward", three_matmul_tree_conv_forward):
        old = values_and_gradients()
    for name, mine, theirs in zip(["out", *model.state_dict()], stacked, old):
        scale = max(1.0, float(np.abs(theirs).max()))
        np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12 * scale, err_msg=name)


# -- the backward against central finite differences -----------------------------------
def test_fused_gradients_match_central_finite_differences():
    n, k = 4, 3
    store = RaggedStore(n, k, max_real=6, seed=5)
    config = TCNNConfig(
        embedding_rank=2, channels=(4, 3), hidden_units=(5,), dropout=0.0, seed=1,
    )
    trainer = TCNNTrainer(store, n, k, config)
    batch = store.full_batch()
    query_idx, hint_idx = every_cell(n, k).T
    rng = np.random.default_rng(2)
    targets = rng.normal(1.0, 0.5, size=n * k)
    # A third of the cells censored, on both sides of their threshold.
    thresholds = np.where(np.arange(n * k) % 3 == 0, targets, 0.0)

    def loss():
        return trainer._gradient(batch, query_idx, hint_idx, targets, thresholds)

    loss()
    analytic = trainer.optimizer.grad.copy()
    theta, eps = trainer._theta, 1e-6
    numeric = np.zeros_like(theta)
    for i in range(theta.size):
        original = theta[i]
        theta[i] = original + eps
        plus = loss()
        theta[i] = original - eps
        minus = loss()
        theta[i] = original
        numeric[i] = (plus - minus) / (2 * eps)
    start = 0
    for name, value in trainer.parameters.items():
        span = slice(start, start + value.size)
        start += value.size
        np.testing.assert_allclose(analytic[span], numeric[span], rtol=0, atol=1e-6, err_msg=name)
    assert start == theta.size


# -- the inference forward --------------------------------------------------------------
def test_forward_under_no_grad_records_no_node():
    store = RaggedStore(3, 3, max_real=5, seed=0)
    trainer = TCNNTrainer(store, 3, 3, TCNNConfig(channels=(4, 4), hidden_units=(4,),
                                                  dropout=0.3))
    batch = store.batch([(0, 0), (1, 2), (2, 1)])
    query_idx, hint_idx = np.array([0, 1, 2]), np.array([0, 2, 1])
    draws = [rng.bit_generator.state for rng in trainer._dropout]
    out, saved = trainer._forward(batch, query_idx, hint_idx, train=False)
    # Inference keeps nothing for a backward, draws no dropout mask and
    # writes no gradient.
    assert saved is None
    assert [rng.bit_generator.state for rng in trainer._dropout] == draws
    assert not trainer.optimizer.grad.any()
    np.testing.assert_allclose(
        np.clip(np.expm1(out), 0.0, None),
        trainer.predict_cells(np.stack([query_idx, hint_idx], axis=1)), rtol=1e-12, atol=0,
    )

    # ...and the training forward keeps what the backward reads.
    _, saved = trainer._forward(batch, query_idx, hint_idx, train=True)
    stacks, convs, children, argmax, relus, masks, inputs = saved
    assert len(stacks) == len(convs) == 2 and children is not None
    assert len(masks) == len(inputs) == 2
    assert [rng.bit_generator.state for rng in trainer._dropout] != draws


def test_masked_max_without_a_tape_matches_the_tracked_values():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(6, 5, 4))
    mask = rng.random((6, 5)) > 0.4
    mask[:, 0] = True
    tracked = parameter(data.copy()).masked_max(mask)
    assert tracked.tracks
    untracked = Tensor(data).masked_max(mask)
    assert not untracked.tracks
    assert np.array_equal(untracked.data, tracked.data)
    # The trainer's tape-free pool over relu outputs with the padding zeroed.
    activations = np.maximum(data, 0.0) * mask[:, :, None]
    expected = parameter(activations).masked_max(mask).data
    assert np.array_equal(_max_over_nodes(activations), expected)
    out = np.full((6, 4), np.nan)
    assert _max_over_nodes(activations, out=out) is out
    assert np.array_equal(out, expected)


def test_fit_after_predict_full_still_trains(tiny_workload):
    matrix = partly_observed(tiny_workload.n_queries, tiny_workload.n_hints, 0, 0.1)
    trainer = TCNNTrainer(
        tiny_workload.feature_store(), *matrix.shape,
        TCNNConfig(channels=(8,), hidden_units=(8,), dropout=0.0, batch_size=32,
                   max_epochs=3, learning_rate=3e-3),
    )
    trainer.predict_full(matrix)
    before = {name: value.copy() for name, value in trainer.parameters.items()}
    losses = trainer.fit(matrix)
    assert losses[-1] < losses[0]
    features = NODE_FEATURE_DIM
    for name, value in trainer.parameters.items():
        if name == "conv0.weight":
            # The synthetic plans are left-deep: the right-child block only
            # ever multiplies the null node, so its gradient is exactly zero
            # and Adam leaves it where it was.
            assert np.array_equal(value[2 * features:], before[name][2 * features:])
            value, before[name] = value[:2 * features], before[name][:2 * features]
        assert not np.array_equal(value, before[name]), name


# -- the plan-space pass -------------------------------------------------------------------
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("use_embeddings", [True, False])
@pytest.mark.parametrize("store_kind", ["ragged", "synthetic"])
def test_predict_full_equals_the_generic_forward_on_every_cell(
    store_kind, use_embeddings, depth, tiny_workload
):
    if store_kind == "ragged":
        n, k = 9, 6
        store = RaggedStore(n, k, max_real=7, seed=4)
    else:
        n, k = tiny_workload.n_queries, tiny_workload.n_hints
        store = tiny_workload.feature_store()
    matrix = partly_observed(n, k, 1, 0.1)
    config = TCNNConfig(
        embedding_rank=3, channels=(6, 5)[:depth], hidden_units=(7, 4), dropout=0.2,
        learning_rate=3e-3, batch_size=16, max_epochs=2,
        use_embeddings=use_embeddings, seed=2,
    )
    trainer = TCNNTrainer(store, n, k, config)
    trainer.fit(matrix)
    full = trainer.predict_full(matrix)
    generic = trainer.predict_cells(every_cell(n, k), batch_size=13).reshape(n, k)
    np.testing.assert_allclose(full, generic, rtol=1e-12, atol=0)
    # predict_cells went through the per-batch forward; the plan-space pass did not.
    with mock.patch.object(trainer, "_forward", side_effect=AssertionError):
        assert np.array_equal(trainer.predict_full(matrix), full)


def test_predict_full_does_not_hand_out_its_workspace(tiny_workload):
    n, k = tiny_workload.n_queries, tiny_workload.n_hints
    matrix = partly_observed(n, k, 0, 0.1)
    trainer = TCNNTrainer(
        tiny_workload.feature_store(), n, k,
        TCNNConfig(channels=(8,), hidden_units=(8,), dropout=0.0, batch_size=32,
                   max_epochs=2, learning_rate=3e-2),
    )
    first = trainer.predict_full(matrix)
    kept = first.copy()
    assert not any(np.shares_memory(first, buffer) for buffer in trainer._workspace.values())
    buffers = dict(trainer._workspace)
    trainer.fit(matrix)
    second = trainer.predict_full(matrix)
    assert np.array_equal(first, kept)  # the next call did not write into it
    assert not np.array_equal(second, first)  # ...and saw the new weights
    # Same shapes, same arrays: nothing matrix-sized is allocated per call.
    assert all(trainer._workspace[stage] is buffer for stage, buffer in buffers.items())


def test_predict_full_resizes_its_workspace_when_the_workload_grows(tiny_workload):
    n, k = tiny_workload.n_queries, tiny_workload.n_hints
    store = tiny_workload.feature_store()
    trainer = TCNNTrainer(
        store, n, k,
        TCNNConfig(channels=(8,), hidden_units=(8,), dropout=0.0, batch_size=32, max_epochs=1),
    )
    matrix = partly_observed(n, k, 0, 0.1)
    trainer.fit(matrix)
    before = trainer.predict_full(matrix)
    store.add_query()
    store.add_query()
    trainer.grow_queries(n + 2)
    grown = partly_observed(n + 2, k, 0, 0.1)
    after = trainer.predict_full(grown)
    assert after.shape == (n + 2, k)
    assert all(len(buffer.reshape(-1)) % ((n + 2) * k) == 0
               for buffer in trainer._workspace.values())
    # Old rows read the same: their plans, embeddings and the weights did not move.
    np.testing.assert_allclose(after[:n], before, rtol=1e-12, atol=0)
    np.testing.assert_allclose(
        after, trainer.predict_cells(every_cell(n + 2, k)).reshape(n + 2, k),
        rtol=1e-12, atol=0,
    )


# -- inference memory --------------------------------------------------------------------
def traced_peak(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_predict_full_peak_memory_is_no_higher_than_with_the_tape(job_small_workload):
    n, k = job_small_workload.n_queries, job_small_workload.n_hints
    matrix = partly_observed(n, k, 0, 0.0)
    config = TCNNConfig(channels=(8,), hidden_units=(16,), dropout=0.2, batch_size=128,
                        max_epochs=1)
    store = job_small_workload.feature_store()
    trainer = TCNNTrainer(store, n, k, config)
    trainer.predict_full(matrix)  # packs the plan space, sizes the workspace
    # Kept between calls: one array per stage, cells x (nodes x channels for
    # the convolution, then pooled, pooled + both embeddings, hidden, output).
    kept = sum(buffer.nbytes for buffer in trainer._workspace.values())
    width = store.full_batch().max_nodes
    per_cell = width * 8 + 8 + (8 + 2 * config.embedding_rank) + 16 + 1
    assert kept == n * k * per_cell * 8  # 4.5 MiB at 113 x 49
    # Allocated per call: output-sized arrays (expm1, clip) -- 87 KiB measured.
    per_call = traced_peak(lambda: trainer.predict_full(matrix))
    assert per_call < 256 * 1024
    # What inference costs on the tape: the op-by-op chain over the same
    # cells, recording every node (17 MiB measured).
    taped = TapedTrainer(store, n, k, config)
    taped.model.eval()
    query_idx, hint_idx = every_cell(n, k).T
    taped_peak = traced_peak(lambda: taped.model(store.full_batch(), query_idx, hint_idx))
    assert kept + per_call <= taped_peak

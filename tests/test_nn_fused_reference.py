"""The trainer's straight-line forward and backward against the taped chain.

``TCNNTrainer`` writes the TCNN's forward and backward out by hand into flat
arrays; ``taped_tcnn`` builds the same network op by op on a small autograd
tape and trains it with the textbook per-parameter Adam.  Whole training runs
must agree bit for bit -- per-epoch losses, every parameter, and
``predict_cells`` -- including across a ``grow_queries`` mid-run.  Also here:
central finite differences against the hand-written backward, the stacked
tree convolution against the three-matmul association it replaced,
``predict_full``'s plan-space pass against the activate-then-pool body it
replaced (bit for bit, in blocks of any size) and the per-batch forward, and
the inference memory bound.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from builders import predict_cells_in_chunks
from repro.config import TCNNConfig
from repro.core.workload_matrix import WorkloadMatrix
from repro.nn import trainer as trainer_module
from repro.nn.trainer import TCNNTrainer, _max_over_nodes
from repro.plans.featurize import (
    NODE_FEATURE_DIM, SyntheticPlanFeatureStore, _FullBatchCacheMixin, pack_trees,
)
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
    """Heap-shaped binary trees of 1..``max_real`` real nodes, one per cell.
    Node features are standard normal, or drawn from ``levels``."""

    def __init__(self, n_queries, n_hints, max_real, seed, levels=None):
        self.shape = (n_queries, n_hints)
        rng = np.random.default_rng(seed)
        self._trees = {}
        for query in range(n_queries):
            for hint in range(n_hints):
                count = int(rng.integers(1, max_real + 1)) + 1  # +1 null node
                nodes = np.zeros((count, NODE_FEATURE_DIM))
                size = (count - 1, NODE_FEATURE_DIM)
                nodes[1:] = rng.normal(size=size) if levels is None else rng.choice(levels, size)
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


def with_two_more_queries(store):
    """A synthetic store over two more queries; the old cells keep their plans."""
    extra = np.random.default_rng(store.seed).random((2, store.query_factors.shape[1]))
    return SyntheticPlanFeatureStore(
        np.vstack([store.query_factors, extra]), store.hint_factors,
        noise=store.noise, seed=store.seed,
    )


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
        convergence_window=2, use_embeddings=use_embeddings,
    )
    small = partly_observed(n, k, seed + 1, censored_share)
    grown = partly_observed(n + added, k, seed + 2, censored_share)

    def run(trainer):
        losses = [trainer.fit(small), trainer.fit(small)]
        trainer.grow_queries(n + added)  # old rows keep their Adam moments
        losses.append(trainer.fit(grown))
        return losses, trainer.predict_cells(every_cell(n + added, k))

    with mock.patch.object(trainer_module, "SEED", seed % 7):
        mine, taped = TCNNTrainer(store, n, k, config), TapedTrainer(store, n, k, config)
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
        embedding_rank=3, channels=(6, 5, 4)[:depth], hidden_units=(7,), dropout=0.0,
    )
    with mock.patch.object(trainer_module, "SEED", seed % 5):
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
def test_fused_gradients_match_central_finite_differences(monkeypatch):
    n, k = 4, 3
    store = RaggedStore(n, k, max_real=6, seed=5)
    monkeypatch.setattr(trainer_module, "SEED", 1)
    config = TCNNConfig(embedding_rank=2, channels=(4, 3), hidden_units=(5,), dropout=0.0)
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
def activate_then_pool(trainer, n, k):
    """``predict_full`` as it was before the last layer pooled its
    pre-activations: every layer adds its bias and applies the relu at every
    node, padding is zeroed, and the pool is a running maximum from node 0.
    Returns the log-space predictions ``(n, k)`` and the pooled features."""
    space = trainer.feature_store.full_batch()
    cells, width = space.mask.shape
    padding = space.mask.reshape(-1) == 0
    left_rows, right_rows = TCNNTrainer._child_rows(space)
    hidden = space.stacked.reshape(cells * width, -1)
    for depth in range(len(trainer.config.channels)):
        if depth:
            hidden = np.concatenate([hidden, hidden[left_rows], hidden[right_rows]], axis=1)
        hidden = np.matmul(hidden, trainer.parameters[f"conv{depth}.weight"])
        hidden += trainer.parameters[f"conv{depth}.bias"]
        np.maximum(hidden, 0.0, out=hidden)
        hidden[padding] = 0.0
    conv = hidden.reshape(cells, width, -1)
    pooled = conv[:, 0].copy()
    for node in range(1, width):
        np.maximum(pooled, conv[:, node], out=pooled)
    out = pooled
    if trainer.config.use_embeddings:
        rows, cols = np.divmod(np.arange(cells), k)
        out = np.concatenate([
            pooled, trainer.parameters["query_embedding"][rows],
            trainer.parameters["hint_embedding"][cols],
        ], axis=1)
    for j in range(len(trainer.config.hidden_units) + 1):
        if j:
            out = np.maximum(out, 0.0)
        out = np.matmul(out, trainer.parameters[f"head{j}.weight"])
        out += trainer.parameters[f"head{j}.bias"]
    return out.reshape(n, k), pooled


def lift_above_the_clip(trainer, n, k):
    """Shift the output bias so that every cell predicts above zero, where
    ``clip(expm1(.), 0)`` would otherwise read most cells as an exact 0 on
    both sides of a comparison."""
    log_space, _ = activate_then_pool(trainer, n, k)
    trainer.parameters[f"head{len(trainer.config.hidden_units)}.bias"] += 1.0 - log_space.min()


def assert_pools_like_activate_then_pool(trainer, matrix):
    n, k = matrix.shape
    full = trainer.predict_full(matrix)
    log_space, pooled = activate_then_pool(trainer, n, k)
    assert np.array_equal(full, np.clip(np.expm1(log_space), 0.0, None))
    assert trainer._workspace["pooled"].tobytes() == pooled.tobytes()
    return full


#: ``predict_full``'s block size as the module sets it (tests patch it down).
UNPATCHED_BLOCK_PLANS = trainer_module.BLOCK_PLANS


def assert_blocks_do_not_move_a_bit(trainer, matrix, full):
    """``full`` (``predict_full`` at the patched block size) ``tobytes``-equal
    to the judge, to a pass at the unpatched size and to one block of every
    plan (the pass before inference ran in blocks)."""
    log_space, _ = activate_then_pool(trainer, *matrix.shape)
    assert full.tobytes() == np.clip(np.expm1(log_space), 0.0, None).tobytes()
    for plans in (UNPATCHED_BLOCK_PLANS, matrix.n_queries * matrix.n_hints):
        with mock.patch.object(trainer_module, "BLOCK_PLANS", plans):
            assert trainer.predict_full(matrix).tobytes() == full.tobytes()


# 16 and 13 plans leave a remainder block on all four stores (54, 66, 1,960
# and 2,058 cells); the unpatched size is one block on the ragged ones.
@pytest.mark.parametrize("block_plans", [UNPATCHED_BLOCK_PLANS, 16, 13])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("use_embeddings", [True, False])
@pytest.mark.parametrize("store_kind", ["ragged", "synthetic"])
def test_predict_full_equals_activate_then_pool_on_every_cell(
    store_kind, use_embeddings, depth, block_plans, tiny_workload, monkeypatch
):
    if store_kind == "ragged":
        n, k = 9, 6
        # Trees are drawn in row-major order: the grown store below has
        # these plans in its first n rows.
        store = RaggedStore(n, k, max_real=7, seed=4)
    else:
        n, k = tiny_workload.n_queries, tiny_workload.n_hints
        store = tiny_workload.feature_store()
    matrix = partly_observed(n, k, 1, 0.1)
    monkeypatch.setattr(trainer_module, "SEED", 2)
    config = TCNNConfig(
        embedding_rank=3, channels=(6, 5)[:depth], hidden_units=(7, 4), dropout=0.2,
        learning_rate=3e-3, batch_size=16, max_epochs=2, use_embeddings=use_embeddings,
    )
    trainer = TCNNTrainer(store, n, k, config)
    trainer.fit(matrix)
    monkeypatch.setattr(trainer_module, "BLOCK_PLANS", block_plans)
    lift_above_the_clip(trainer, n, k)
    full = assert_pools_like_activate_then_pool(trainer, matrix)
    assert (full > 0).all()  # nothing clipped: every cell is judged
    assert_blocks_do_not_move_a_bit(trainer, matrix, full)
    generic = predict_cells_in_chunks(trainer, every_cell(n, k), 13).reshape(n, k)
    np.testing.assert_allclose(full, generic, rtol=1e-12, atol=0)
    # predict_cells went through the per-batch forward; the plan-space pass did not.
    with mock.patch.object(trainer, "_forward", side_effect=AssertionError):
        assert np.array_equal(trainer.predict_full(matrix), full)

    # ...and after two queries arrive and the model trains on them.
    if store_kind == "ragged":
        trainer.feature_store = RaggedStore(n + 2, k, max_real=7, seed=4)
    else:
        trainer.feature_store = with_two_more_queries(store)
    trainer.grow_queries(n + 2)
    grown = partly_observed(n + 2, k, 2, 0.1)
    trainer.fit(grown)
    lift_above_the_clip(trainer, n + 2, k)
    full = assert_pools_like_activate_then_pool(trainer, grown)
    assert (full > 0).all()
    assert_blocks_do_not_move_a_bit(trainer, grown, full)


signed_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),  # ties and both zeros
    st.floats(allow_nan=False, allow_infinity=False),  # huge and subnormal too
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    cells=st.integers(1, 4),
    width=st.integers(2, 6),
    channels=st.integers(1, 3),
)
def test_pooling_pre_activations_equals_pooling_relu_outputs(data, cells, width, channels):
    """The identity ``predict_full`` rests on: ``fl(x + b)`` and relu are
    non-decreasing, so the max over real nodes commutes with both."""
    x = data.draw(arrays(float, (cells, width, channels), elements=signed_values))
    bias = data.draw(arrays(float, channels, elements=signed_values))
    real = data.draw(arrays(bool, (cells, width)))
    real[:, 0] = False  # the null node
    some_node = data.draw(arrays(np.int64, cells, elements=st.integers(1, width - 1)))
    real[np.arange(cells), some_node] = True  # every plan has a real node
    with np.errstate(over="ignore"):
        # Activate at every node, zero the padding, pool from node 0.
        activated = np.maximum(x + bias, 0.0)
        activated[~real] = 0.0
        before = _max_over_nodes(activated)
        # Pool the pre-activations from node 1 with the padding at -inf, then activate.
        bare = x.copy()
        bare[~real & (np.arange(width) > 0)] = -np.inf
        after = _max_over_nodes(bare[:, 1:])
        after += bias
        np.maximum(after, 0.0, out=after)
    assert after.tobytes() == before.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    depth=st.integers(1, 2),
    max_real=st.integers(1, 6),
    use_embeddings=st.booleans(),
    scale=st.sampled_from([1e-300, 1.0, 1e150]),
    block_plans=st.integers(1, 21),
    seed=st.integers(0, 10_000),
)
def test_predict_full_pools_like_activate_then_pool_on_drawn_weights(
    depth, max_real, use_embeddings, scale, block_plans, seed
):
    """Tree-conv weights and biases of both signs, ±0, at tiny and huge
    scales, over plans whose features take four levels, so that nodes tie;
    the 20 plans in blocks of any size."""
    n, k = 5, 4
    levels = (-1.0, -0.0, 0.0, 1.0)
    store = RaggedStore(n, k, max_real, seed, levels=levels)
    config = TCNNConfig(
        embedding_rank=2, channels=(5, 4)[:depth], hidden_units=(3,), dropout=0.0,
        use_embeddings=use_embeddings,
    )
    with mock.patch.object(trainer_module, "SEED", seed % 5):
        trainer = TCNNTrainer(store, n, k, config)
    rng = np.random.default_rng(seed)
    for depth_ in range(depth):
        weight = trainer.parameters[f"conv{depth_}.weight"]
        # Mostly zero: a channel reads a few features, so products repeat.
        weight[:] = rng.choice(levels, weight.shape) * (rng.random(weight.shape) < 0.2) * scale
        bias = trainer.parameters[f"conv{depth_}.bias"]
        bias[:] = rng.choice(levels, bias.shape) * scale * rng.random(bias.shape)
    matrix = WorkloadMatrix(n, k)
    with mock.patch.object(trainer_module, "BLOCK_PLANS", block_plans):
        full = assert_pools_like_activate_then_pool(trainer, matrix)
        assert_blocks_do_not_move_a_bit(trainer, matrix, full)


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
    store = trainer.feature_store = with_two_more_queries(store)
    trainer.grow_queries(n + 2)
    grown = partly_observed(n + 2, k, 0, 0.1)
    after = trainer.predict_full(grown)
    assert after.shape == (n + 2, k)
    # Per-cell stages follow the cell count; the block stages hold one block.
    width = store.full_batch().max_nodes
    for stage, buffer in trainer._workspace.items():
        if stage[0] in ("stack", "conv"):
            assert len(buffer) == trainer_module.BLOCK_PLANS * width, stage
        else:
            assert len(buffer.reshape(-1)) % ((n + 2) * k) == 0, stage
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
    # Kept between calls: one block of the convolution (plans x nodes x
    # channels), then one array per stage, cells x (pooled, pooled + both
    # embeddings, hidden, output).
    kept = sum(buffer.nbytes for buffer in trainer._workspace.values())
    width = store.full_batch().max_nodes
    block = trainer_module.BLOCK_PLANS * width * 8
    per_cell = 8 + (8 + 2 * config.embedding_rank) + 16 + 1
    assert kept == (block + n * k * per_cell) * 8  # 2.1 MiB at 113 x 49
    # No stage is kept over every node of every plan.
    assert all(len(buffer) != n * k * width for buffer in trainer._workspace.values())
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

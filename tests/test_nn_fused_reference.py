"""The fused autograd nodes against the chains they replaced.

``BinaryTreeConv.forward``, ``Linear.forward``, ``mse_loss`` and
``censored_mse_loss`` used to record one tape node per primitive op; they now
record one fused node each (``tree_conv`` / ``affine`` /
``squared_error_loss``).  The chains are kept here, built from the primitive
ops that stay in ``repro.nn.autograd``, as the reference the fused nodes must
match bit for bit -- values, gradients, and therefore whole training runs.
Also here: the stacked tree convolution against the three-matmul association
it replaced, central finite differences against the fused gradients, the
``no_grad`` contract, ``predict_full``'s plan-space pass against the generic
``forward``, and the inference memory bound.
"""

from __future__ import annotations

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TCNNConfig
from repro.core.workload_matrix import WorkloadMatrix
from repro.errors import NeuralNetworkError
from repro.nn import trainer as trainer_module
from repro.nn.autograd import Tensor, no_grad, parameter
from repro.nn.layers import Linear
from repro.nn.losses import censored_mse_loss
from repro.nn.tcnn import TransductiveTCNN
from repro.nn.trainer import TCNNTrainer
from repro.nn.treeconv import BinaryTreeConv
from repro.plans.featurize import NODE_FEATURE_DIM, _FullBatchCacheMixin, pack_trees


# -- the unfused chains ---------------------------------------------------------------------
def reference_tree_conv_forward(self, nodes, left, right, mask, out=None):
    """The tree convolution op by op, in the kernel's stacked association:
    one product of ``[node | left child | right child]`` with the three
    weights joined.  (``out`` is the kernel's business; a chain allocates.)"""
    if nodes.ndim != 3:
        raise NeuralNetworkError("tree convolution expects a 3-D node tensor")
    batch, width, features = nodes.shape
    if features == self.in_channels:  # hidden activations: stack them here
        nodes = nodes.concat(nodes.gather_nodes(left)).concat(nodes.gather_nodes(right))
    weights = self.weight_self.concat(self.weight_left, axis=0).concat(
        self.weight_right, axis=0
    )
    combined = (
        nodes.reshape(batch * width, 3 * self.in_channels).matmul(weights)
        .reshape(batch, width, self.out_channels)
        + self.bias
    )
    activated = combined.relu()
    return activated.apply_mask(np.asarray(mask, dtype=float)[:, :, None])


def three_matmul_tree_conv_forward(self, nodes, left, right, mask, out=None):
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


def reference_linear_forward(self, x):
    return x.matmul(self.weight) + self.bias


def reference_mse_loss(predictions, targets):
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise NeuralNetworkError("shape mismatch")
    diff = predictions - Tensor(targets)
    return (diff * diff).mean()


def reference_censored_mse_loss(predictions, targets, thresholds=None):
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise NeuralNetworkError("shape mismatch")
    if thresholds is None:
        return reference_mse_loss(predictions, targets)
    thresholds = np.asarray(thresholds, dtype=float)
    if thresholds.shape != targets.shape:
        raise NeuralNetworkError("threshold shape does not match target shape")
    censored = thresholds > 0
    below = predictions.data < thresholds
    weights = np.where(censored, below.astype(float), 1.0)
    diff = predictions - Tensor(targets)
    weighted = (diff * diff).apply_mask(weights)
    return weighted.mean()


def reference_trainer_loss(predictions, targets, thresholds=None):
    """The old trainer's per-mini-batch choice between the two losses."""
    if thresholds is not None and (thresholds > 0).any():
        return reference_censored_mse_loss(predictions, targets, thresholds)
    return reference_mse_loss(predictions, targets)


@contextlib.contextmanager
def unfused_model():
    """Swap the op-by-op chains in for the fused nodes."""
    with mock.patch.object(BinaryTreeConv, "forward", reference_tree_conv_forward), \
            mock.patch.object(Linear, "forward", reference_linear_forward), \
            mock.patch.object(trainer_module, "censored_mse_loss", reference_trainer_loss):
        yield


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


def train_and_predict(store, matrix, config):
    n, k = matrix.shape
    trainer = TCNNTrainer(store, n, k, config)
    losses = [trainer.fit(matrix), trainer.fit(matrix)]
    return losses, trainer.model.state_dict(), trainer.predict_full(matrix)


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
    n, k = 7, 5
    store = RaggedStore(n, k, max_real, seed)
    matrix = partly_observed(n, k, seed + 1, censored_share)
    config = TCNNConfig(
        embedding_rank=3, channels=(6, 5, 4)[:depth], hidden_units=(7,),
        dropout=dropout, learning_rate=3e-3, batch_size=8, max_epochs=3,
        convergence_window=2, use_embeddings=use_embeddings, seed=seed % 7,
    )
    with unfused_model():
        ref_losses, ref_state, ref_full = train_and_predict(store, matrix, config)
    losses, state, full = train_and_predict(store, matrix, config)

    assert losses == ref_losses
    assert state.keys() == ref_state.keys()
    for name in state:
        assert np.array_equal(state[name], ref_state[name]), name
    assert np.array_equal(full, ref_full)


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

    fused = values_and_gradients()
    with mock.patch.object(BinaryTreeConv, "forward", three_matmul_tree_conv_forward):
        old = values_and_gradients()
    for name, mine, theirs in zip(["out", *model.state_dict()], fused, old):
        scale = max(1.0, float(np.abs(theirs).max()))
        np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12 * scale, err_msg=name)


# -- gradients against central finite differences --------------------------------------
def test_fused_gradients_match_central_finite_differences():
    n, k = 4, 3
    store = RaggedStore(n, k, max_real=6, seed=5)
    config = TCNNConfig(
        embedding_rank=2, channels=(4, 3), hidden_units=(5,), dropout=0.0, seed=1,
    )
    model = TransductiveTCNN(n, k, config)
    cells = [(q, h) for q in range(n) for h in range(k)]
    batch = store.batch(cells)
    query_idx = np.array([c[0] for c in cells])
    hint_idx = np.array([c[1] for c in cells])
    rng = np.random.default_rng(2)
    targets = rng.normal(1.0, 0.5, size=len(cells))
    # A third of the cells censored, on both sides of their threshold.
    thresholds = np.where(np.arange(len(cells)) % 3 == 0, targets, 0.0)

    def loss_value():
        return censored_mse_loss(
            model(batch, query_idx, hint_idx), targets, thresholds
        )

    model.zero_grad()
    loss_value().backward()
    eps = 1e-6
    for name, param in zip(model.state_dict(), model.parameters()):
        assert param.grad is not None, name
        flat = param.data.reshape(-1)
        numeric = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + eps
                plus = loss_value().item()
                flat[i] = original - eps
                minus = loss_value().item()
                flat[i] = original
                numeric[i] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(
            param.grad.reshape(-1), numeric, rtol=0, atol=1e-6, err_msg=name
        )


# -- no_grad -----------------------------------------------------------------------------
def test_forward_under_no_grad_records_no_node():
    store = RaggedStore(3, 3, max_real=5, seed=0)
    model = TransductiveTCNN(3, 3, TCNNConfig(channels=(4, 4), hidden_units=(4,)))
    batch = store.batch([(0, 0), (1, 2), (2, 1)])
    made = []
    real_init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    with mock.patch.object(Tensor, "__init__", recording_init), no_grad():
        out = model(batch, np.array([0, 1, 2]), np.array([0, 2, 1]))
    assert made, "the forward pass made no tensor at all"
    assert all(t._backward is None and t._parents == () for t in made)
    assert not out.tracks

    # ...and with the tape on, the same call records the fused nodes.
    out = model(batch, np.array([0, 1, 2]), np.array([0, 2, 1]))
    names = {node.name for node in out._topological_order()}
    assert {"tree_conv", "affine"} <= names
    assert not {"matmul", "add", "gather_nodes"} & names


def test_no_grad_nests_and_restores_on_exception():
    weight = parameter(np.ones((2, 2)))
    x = Tensor(np.ones((1, 2)))
    with no_grad():
        with no_grad():
            assert not (x @ weight).tracks
        assert not (x @ weight).tracks  # the inner exit must not re-enable
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert not (x @ weight).tracks
    assert (x @ weight).tracks
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert (x @ weight).tracks


def test_masked_max_without_a_tape_matches_the_tracked_values():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(6, 5, 4))
    mask = rng.random((6, 5)) > 0.4
    mask[:, 0] = True
    tracked = parameter(data.copy()).masked_max(mask)
    assert tracked.tracks
    with no_grad():
        untracked = parameter(data.copy()).masked_max(mask)
    assert not untracked.tracks
    assert np.array_equal(untracked.data, tracked.data)
    assert np.array_equal(Tensor(data).masked_max(mask).data, tracked.data)


def test_fit_after_predict_full_still_trains(tiny_workload):
    matrix = partly_observed(tiny_workload.n_queries, tiny_workload.n_hints, 0, 0.1)
    trainer = TCNNTrainer(
        tiny_workload.feature_store(), *matrix.shape,
        TCNNConfig(channels=(8,), hidden_units=(8,), dropout=0.0, batch_size=32,
                   max_epochs=3, learning_rate=3e-3),
    )
    trainer.predict_full(matrix)
    before = trainer.model.state_dict()
    losses = trainer.fit(matrix)
    after = trainer.model.state_dict()
    assert losses[-1] < losses[0]
    for name, param in zip(before, trainer.model.parameters()):
        assert param.grad is not None, name
        # (The synthetic plans are left-deep: ``weight_right`` only ever sees
        # the null node, so its gradient is exactly zero.)
        if param.grad.any():
            assert not np.array_equal(before[name], after[name]), name
    assert not np.array_equal(
        before["tree_conv.conv0.weight_self"], after["tree_conv.conv0.weight_self"]
    )


# -- the plan-space pass -------------------------------------------------------------------
def every_cell(n, k):
    return np.stack(np.divmod(np.arange(n * k), k), axis=1)


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
    # predict_cells went through model.forward; the plan-space pass did not.
    with mock.patch.object(type(trainer.model), "forward", side_effect=AssertionError):
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
    trainer = TCNNTrainer(job_small_workload.feature_store(), n, k, config)
    expected = trainer.predict_full(matrix)  # packs the plan space, sizes the workspace
    # Kept between calls: one array per stage, cells x (nodes x channels for
    # the convolution, then pooled, pooled + both embeddings, hidden, output).
    kept = sum(buffer.nbytes for buffer in trainer._workspace.values())
    per_cell = 8 * 8 + 8 + (8 + 2 * config.embedding_rank) + 16 + 1
    assert kept == n * k * per_cell * 8  # 4.5 MiB at 113 x 49
    # Allocated per call: the relu/padding flags of the convolution (one byte
    # per entry, 346 KiB) and output-sized arrays -- 483 KiB measured.
    per_call = traced_peak(lambda: trainer.predict_full(matrix))
    assert per_call < 640 * 1024
    # What inference cost before the fusion: the op-by-op chain, recording
    # its tape (11.2 MiB measured; 3.2 MiB when the chain ran in chunks).
    with unfused_model(), mock.patch.object(
        trainer_module, "no_grad", contextlib.nullcontext
    ):
        taped_peak = traced_peak(lambda: trainer.predict_full(matrix))
        assert np.array_equal(trainer.predict_full(matrix), expected)
    assert kept + per_call <= taped_peak

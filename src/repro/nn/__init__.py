"""A small numpy-only neural-network substrate.

The paper's neural method (LimeQO+) is a tree convolutional network with
query/hint embedding layers, trained with Adam, dropout, and a censored
loss.  PyTorch is not available in this environment, so this package
provides the minimum viable substrate:

* :mod:`repro.nn.autograd` -- reverse-mode automatic differentiation over
  numpy arrays (with fused tree-conv / affine / loss nodes and a
  ``no_grad`` context for tape-free inference),
* :mod:`repro.nn.layers` -- Linear, ReLU, Dropout, Embedding, Sequential,
* :mod:`repro.nn.treeconv` -- binary tree convolution and dynamic pooling,
* :mod:`repro.nn.optim` -- Adam over flat moment buffers,
* :mod:`repro.nn.losses` -- MSE and the censored loss (paper Equation 8),
* :mod:`repro.nn.tcnn` -- the TCNN and transductive TCNN models,
* :mod:`repro.nn.trainer` -- the training loop with the paper's
  convergence criterion and warm starting.
"""

from .autograd import Tensor, no_grad
from .layers import Dropout, Embedding, Linear, Module, ReLU, Sequential
from .losses import censored_mse_loss, mse_loss
from .optim import Adam
from .tcnn import TCNNModel, TransductiveTCNN
from .trainer import TCNNTrainer
from .treeconv import BinaryTreeConv, DynamicPooling

__all__ = [
    "Tensor",
    "no_grad",
    "Dropout",
    "Embedding",
    "Linear",
    "Module",
    "ReLU",
    "Sequential",
    "censored_mse_loss",
    "mse_loss",
    "Adam",
    "TCNNModel",
    "TransductiveTCNN",
    "TCNNTrainer",
    "BinaryTreeConv",
    "DynamicPooling",
]

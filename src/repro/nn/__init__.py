"""The neural method (LimeQO+) in numpy.

The paper's neural method is a tree convolutional network with query/hint
embedding layers, trained with Adam, dropout and a censored loss.  PyTorch
is not available in this environment, and the architecture never changes,
so its forward and backward are written out by hand:

* :mod:`repro.nn.trainer` -- the TCNN, its straight-line forward and
  backward, the training loop with the paper's convergence criterion and
  warm starting, and inference over the packed plan space,
* :mod:`repro.nn.optim` -- Adam over one flat parameter vector.

The taped autograd chain the trainer is held to bit for bit lives with the
tests (``tests/taped_tcnn.py``).
"""

from .optim import Adam
from .trainer import TCNNTrainer

__all__ = ["Adam", "TCNNTrainer"]

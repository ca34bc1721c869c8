"""Multi-layer multiple kernel machines.

Greedy layerwise feature learning: each layer combines base kernels
with weights from an unsupervised reconstruction objective, extracts
kernel principal components, and keeps the most class-informative ones;
a kernel SVM sits on the final representation.
"""

from . import config, data, errors, featsel, kernels, kpca, pipeline, search, svm, umkl
from .errors import MlmklError
from .kernels import KernelFamily, KernelSpec, cross_gram, gram, parse_kernel
from .pipeline import LayerConfig, MlmklModel, fit, load, predict, save, transform
from .umkl import KernelWeights, solve_simplex_qp

__version__ = "0.1.0"

__all__ = [
    "config",
    "data",
    "errors",
    "featsel",
    "kernels",
    "kpca",
    "pipeline",
    "search",
    "svm",
    "umkl",
    "MlmklError",
    "KernelFamily",
    "KernelSpec",
    "KernelWeights",
    "LayerConfig",
    "MlmklModel",
    "parse_kernel",
    "gram",
    "cross_gram",
    "solve_simplex_qp",
    "fit",
    "transform",
    "predict",
    "save",
    "load",
    "__version__",
]

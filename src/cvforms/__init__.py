"""Exact arithmetic for confluent Vandermonde forms.

A form ``[n_1 ... n_N]`` is the determinant whose (i, j) entry is
``t_j**(n_j - i + 1) / (n_j - i + 1)!``, the j-th column holding the
(N - 1 - n_j)-fold derivative of the Vandermonde column in ``t_j``.
The package exports the form, its exact evaluation, the ribbon tableau
basis and its rank proof; every other name is imported from its module:
``poly``, ``cvform``, ``laplace``, ``ribbon``, ``basis`` or ``cli``.
"""

from .basis import generate_basis, verify_independence
from .cvform import CvForm
from .laplace import evaluate

__version__ = "0.1.0"

__all__ = ["CvForm", "evaluate", "generate_basis", "verify_independence"]

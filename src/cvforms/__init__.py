"""Exact arithmetic for confluent Vandermonde forms.

A form ``[n_1 ... n_N]`` is the determinant whose (i, j) entry is
``t_j**(n_j - i + 1) / (n_j - i + 1)!``, the j-th column holding the
(N - 1 - n_j)-fold derivative of the Vandermonde column in ``t_j``.
The package evaluates these determinants exactly, expands them into
signed row-blocks, classifies them by type and class, builds the ribbon
tableau bases of the harmonic subspaces, and checks the counting and
independence facts behind that construction.
"""

from .basis import (
    Basis,
    BasisForm,
    compare_bases,
    fraction_free_rank,
    generate_basis,
    q_factorial,
    verify_characteristic_uniqueness,
    verify_harmonicity,
    verify_independence,
)
from .cvform import CvForm, permutation_sign, valid_class
from .laplace import (
    RowBlock,
    build_decoding_table,
    derivative_oracle,
    evaluate,
    expand_rowblocks,
    naive_oracle,
)
from .poly import Polynomial
from .ribbon import (
    Ribbon,
    SkewPartition,
    SkewTableau,
    backward_order,
    class_to_ribbon,
    enumerate_ribbons,
    enumerate_tableaux,
    flip,
    render_ribbon,
    render_tableau,
    ribbon_from_steps,
    ribbon_generating_function,
    ribbon_index,
    ribbons_of_degree,
    tableau_from_cvform,
    tableau_to_cvform,
    tableau_to_type,
    to_skew_partition,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BasisForm",
    "CvForm",
    "Polynomial",
    "Ribbon",
    "RowBlock",
    "SkewPartition",
    "SkewTableau",
    "backward_order",
    "build_decoding_table",
    "class_to_ribbon",
    "compare_bases",
    "derivative_oracle",
    "enumerate_ribbons",
    "enumerate_tableaux",
    "evaluate",
    "expand_rowblocks",
    "flip",
    "fraction_free_rank",
    "generate_basis",
    "naive_oracle",
    "permutation_sign",
    "q_factorial",
    "render_ribbon",
    "render_tableau",
    "ribbon_from_steps",
    "ribbon_generating_function",
    "ribbon_index",
    "ribbons_of_degree",
    "tableau_from_cvform",
    "tableau_to_cvform",
    "tableau_to_type",
    "to_skew_partition",
    "valid_class",
    "verify_characteristic_uniqueness",
    "verify_harmonicity",
    "verify_independence",
]
